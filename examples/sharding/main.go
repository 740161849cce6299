// Sharding: watch MongoDB-style auto-sharding work — sequential inserts
// pile chunks onto one shard, automatic splits carve the key space, and
// the balancer migrates chunks until the cluster evens out. Contrast
// with static hash sharding, which needs no balancing but fans every
// range scan out to all shards.
package main

import (
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/shard"
	"elephants/internal/sim"
	"elephants/internal/ycsb"
)

func main() {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 5})
	servers, clients, config := cl.Nodes[:2], cl.Nodes[2:4], cl.Nodes[4]

	var mongods []*shard.Mongod
	for i := 0; i < 4; i++ {
		mongods = append(mongods, shard.NewMongod(s, servers[i%2], shard.MongodConfig{}))
	}
	mas := shard.NewMongoAS(s, mongods, []*cluster.Node{servers[0], servers[1]}, clients, config,
		shard.MongoASConfig{SplitThreshold: 100, BalanceEvery: sim.Second, BalanceSlack: 1})
	mas.StartBackground()

	const inserts = 1200
	fields := make([]string, ycsb.FieldCount)
	for i := range fields {
		fields[i] = string(make([]byte, 100))
	}
	s.Spawn("loader", func(p *sim.Proc) {
		for i := 0; i < inserts; i++ {
			if err := mas.Insert(p, 0, ycsb.Key(int64(i)), fields); err != nil {
				fmt.Println("insert failed:", err)
				return
			}
			if i%300 == 299 {
				fmt.Printf("after %4d inserts: %2d chunks, per-shard %v, %d splits so far\n",
					i+1, mas.Chunks().NumChunks(), mas.Chunks().CountsByShard(4), splits(mas))
			}
			p.Sleep(20 * sim.Millisecond)
		}
		p.Sleep(10 * sim.Second) // let the balancer settle
		mas.StopBackground()
	})
	s.Run()

	fmt.Printf("\nfinal: %d chunks after %d automatic splits, per-shard %v\n",
		mas.Chunks().NumChunks(), mas.Splits(), mas.Chunks().CountsByShard(4))
	if err := mas.Chunks().Validate(); err != nil {
		fmt.Println("chunk map invariant violated:", err)
		return
	}
	fmt.Println("chunk map invariants hold")

	// Contrast: a range scan under each scheme.
	fmt.Println("\nshort range scan (10 keys):")
	fmt.Println("  Mongo-AS  → router touches only the chunk(s) covering the range (1 shard)")
	h := shard.NewHashShards(4)
	touched := map[int]bool{}
	for i := int64(500); i < 510; i++ {
		touched[h.ShardFor(ycsb.Key(i))] = true
	}
	fmt.Printf("  hash-CS   → those same 10 keys live on %d different shards; every scan asks all 4\n", len(touched))
}

func splits(m *shard.MongoAS) int64 { return m.Splits() }
