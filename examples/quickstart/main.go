// Quickstart: build one SQL-Server-like engine and one mongod on a
// simulated node each, load a few thousand records, and compare
// point-read and update latencies cold vs warm — the smallest possible
// tour of the public pieces (sim, cluster, sqleng, docstore, shard).
package main

import (
	"fmt"
	"log"

	"elephants/internal/cluster"
	"elephants/internal/docstore"
	"elephants/internal/shard"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
)

func main() {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 2})

	// A SQL engine with a deliberately small buffer pool (the dataset
	// will be ~2.5× larger, like the paper's setup) ...
	eng := sqleng.New(s, cl.Nodes[0], sqleng.Config{BufferPoolPages: 120})
	// ... and a mongod with the equivalent resident-set budget.
	mon := shard.NewMongod(s, cl.Nodes[1], shard.MongodConfig{ResidentExtents: 30})

	const records = 2000
	rec := make([]byte, 1000)
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("%024d", i)
		eng.LoadRecord(key, rec)
		doc := docstore.NewDoc(docstore.Field{Key: "_id", Val: key})
		for f := 0; f < 10; f++ {
			doc.Set(fmt.Sprintf("field%d", f), string(make([]byte, 100)))
		}
		if err := mon.Load(doc); err != nil {
			log.Fatal(err)
		}
	}

	time := func(p *sim.Proc, fn func()) sim.Duration {
		t0 := p.Now()
		fn()
		return sim.Duration(p.Now() - t0)
	}

	s.Spawn("demo", func(p *sim.Proc) {
		key := fmt.Sprintf("%024d", 777)
		fmt.Println("SQL engine (8 KB pages, row locks, WAL):")
		fmt.Printf("  cold read:  %v\n", time(p, func() { eng.ReadRecord(p, key) }))
		fmt.Printf("  warm read:  %v\n", time(p, func() { eng.ReadRecord(p, key) }))
		fmt.Printf("  update:     %v (includes group-commit WAL flush)\n",
			time(p, func() { eng.UpdateRecord(p, key, rec) }))

		fmt.Println("mongod (32 KB extents, global write lock, no durability):")
		fmt.Printf("  cold read:  %v\n", time(p, func() { mon.FindByID(p, key) }))
		fmt.Printf("  warm read:  %v\n", time(p, func() { mon.FindByID(p, key) }))
		fmt.Printf("  update:     %v (no log flush — and it blocks all readers)\n",
			time(p, func() { mon.UpdateByID(p, key, "field0", "x") }))
	})
	s.Run()
	fmt.Println("\nAll timings are virtual-clock readings from the simulated hardware.")
}
