package dist

import (
	"net"
	"sync"
	"testing"
	"time"

	"elephants/internal/tpch"
)

// idleSessions counts shard i's kept sessions on c.
func idleSessions(c *Coordinator, i int) int {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	return len(c.idle[i])
}

// countingConn counts the bytes written to a connection.
type countingConn struct {
	net.Conn
	written int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.written += len(p)
	return c.Conn.Write(p)
}

// TestDistSessionReuse: a sequential round of all 22 queries over two
// shards is answered golden on kept sessions — each shard accepts at
// most two connections for the whole round, where a connection per
// request would make one per cut query — and on one session the second of two identical
// requests is smaller on the wire than the first, because the gob type
// descriptors crossed with the first.
func TestDistSessionReuse(t *testing.T) {
	want := readGolden(t)
	shards := startShards(t, 2)
	c := NewCoordinatorDB(tpch.Generate(goldenGen()), []string{shards[0].Addr(), shards[1].Addr()}, Options{})
	defer c.Close()
	diffSnapshot(t, coordAnswers(t, c), want)
	for i, s := range shards {
		s.mu.Lock()
		accepted := s.accepted
		s.mu.Unlock()
		if accepted > 2 {
			t.Errorf("shard %d accepted %d connections for one sequential round (%d requests)", i, accepted, c.Stats()[cRequests])
		}
	}

	conn, err := net.Dial("tcp", shards[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingConn{Conn: conn}
	s := newSession(counted)
	defer conn.Close()
	req := Request{Op: OpCut, Query: 4}
	var sent [2]int
	for k := range sent {
		before := counted.written
		resp, _, err := s.roundTrip(0, req, time.Now().Add(time.Minute), nil)
		if err != nil || resp.Err != "" || resp.Rows == 0 {
			t.Fatalf("request %d: %d rows, %v %q", k, resp.Rows, err, resp.Err)
		}
		sent[k] = counted.written - before
	}
	if sent[1] >= sent[0] {
		t.Fatalf("the second identical request took %d bytes, the first %d", sent[1], sent[0])
	}
}

// TestDistShardCloseWithIdleSession: a shard closes its sessions when it
// closes, so an idle session a coordinator keeps does not hold
// Shard.Close until the session's read deadline.
func TestDistShardCloseWithIdleSession(t *testing.T) {
	shards := startShards(t, 1)
	c := NewCoordinatorDB(tpch.Generate(goldenGen()), []string{shards[0].Addr()}, Options{ProbeEvery: -1})
	defer c.Close()
	if err := c.Health(0); err != nil {
		t.Fatal(err)
	}
	if n := idleSessions(c, 0); n != 1 {
		t.Fatalf("%d idle sessions after one health check, want 1", n)
	}
	start := time.Now()
	shards[0].Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shard.Close took %v with an idle session open", d)
	}
}

// TestDistStaleSessionRedial: a shard restart leaves the coordinator
// holding sessions the old incarnation closed. A request that fails on
// one before any answer arrives is re-sent on a fresh connection within
// the same attempt, so the restart costs no retry and no breaker
// failure — with three stale sessions per shard and BreakerAfter 3,
// counting them would trip the breaker and fail the query fast.
func TestDistStaleSessionRedial(t *testing.T) {
	want := readGolden(t)
	gen := goldenGen()
	shards := startShards(t, 2)
	c := NewCoordinatorDB(tpch.Generate(gen), []string{shards[0].Addr(), shards[1].Addr()},
		Options{FailFast: true, BreakerAfter: 3, ProbeEvery: -1})
	defer c.Close()

	// Four queries at once keep a session per overlapping request.
	for round := 0; idleSessions(c, 0) < 3 || idleSessions(c, 1) < 3; round++ {
		if round == 10 {
			t.Fatalf("concurrent queries left %d and %d idle sessions", idleSessions(c, 0), idleSessions(c, 1))
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.RunQuery(1); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	port := shards[0].Port()
	shards[0].Close()
	restarted, err := StartShard(ShardConfig{Shards: 2, Index: 0, SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64, Port: port})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()

	out, err := c.RunQuery(6)
	if err != nil {
		t.Fatalf("after the restart: %v (stats %v)", err, c.Stats())
	}
	if got := tpch.FormatAnswer(6, out); got != goldenBlock(want, 6) {
		t.Fatalf("after the restart, Q6 drifted:\n%s", got)
	}
	if stats := c.Stats(); stats[cBreakerTrips] != 0 || stats[cRetries] != 0 {
		t.Fatalf("stale sessions counted as failures: %v", stats)
	}
}
