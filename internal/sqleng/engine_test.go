package sqleng

import (
	"fmt"
	"testing"
	"testing/quick"

	"elephants/internal/cluster"
	"elephants/internal/sim"
)

func newTestEngine(t *testing.T, cfg Config) (*sim.Sim, *Engine) {
	t.Helper()
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 1})
	return s, New(s, cl.Nodes[0], cfg)
}

func TestInsertRead(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	var got []byte
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		if err = e.InsertRecord(p, "user1", []byte("v1")); err != nil {
			return
		}
		got, err = e.ReadRecord(p, "user1")
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Errorf("read %q, want v1", got)
	}
}

func TestReadMissing(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		_, err = e.ReadRecord(p, "ghost")
	})
	s.Run()
	if err == nil {
		t.Error("read of missing key should fail")
	}
}

func TestUpdate(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	var got []byte
	s.Spawn("c", func(p *sim.Proc) {
		e.InsertRecord(p, "k", []byte("old"))
		e.UpdateRecord(p, "k", []byte("new"))
		got, _ = e.ReadRecord(p, "k")
	})
	s.Run()
	if string(got) != "new" {
		t.Errorf("after update: %q", got)
	}
}

func TestUpdateMissing(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		err = e.UpdateRecord(p, "ghost", []byte("x"))
	})
	s.Run()
	if err == nil {
		t.Error("update of missing key should fail")
	}
}

func TestScanOrdered(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	for i := 0; i < 20; i++ {
		e.LoadRecord(fmt.Sprintf("user%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	var recs [][]byte
	s.Spawn("c", func(p *sim.Proc) {
		recs, _ = e.ScanRecords(p, "user005", 5)
	})
	s.Run()
	if len(recs) != 5 {
		t.Fatalf("scan returned %d, want 5", len(recs))
	}
	if string(recs[0]) != "v5" {
		t.Errorf("first scan record = %q, want v5", recs[0])
	}
}

func TestBufferPoolMissChargesDisk(t *testing.T) {
	// Tiny buffer pool: every access misses, so reads pay random I/O.
	s, e := newTestEngine(t, Config{BufferPoolPages: 2})
	for i := 0; i < 100; i++ {
		e.LoadRecord(fmt.Sprintf("user%03d", i), make([]byte, 1024))
	}
	var elapsed sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		e.ReadRecord(p, "user050")
		elapsed = sim.Duration(p.Now() - start)
	})
	s.Run()
	if elapsed < 6*sim.Millisecond {
		t.Errorf("cold read took %v, want >= one seek (6ms)", elapsed)
	}
}

func TestWarmReadIsFast(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	e.LoadRecord("k", []byte("v"))
	var first, second sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		t0 := p.Now()
		e.ReadRecord(p, "k")
		first = sim.Duration(p.Now() - t0)
		t1 := p.Now()
		e.ReadRecord(p, "k")
		second = sim.Duration(p.Now() - t1)
	})
	s.Run()
	if second >= first {
		t.Errorf("warm read (%v) should be faster than cold (%v)", second, first)
	}
	if second > sim.Millisecond {
		t.Errorf("warm read took %v, want sub-millisecond (CPU only)", second)
	}
}

func TestReadCommittedBlocksOnWriter(t *testing.T) {
	s, e := newTestEngine(t, Config{Isolation: ReadCommitted})
	e.LoadRecord("k", []byte("v"))
	// Warm the pages so only lock waiting matters.
	var readLatency sim.Duration
	s.Spawn("warm", func(p *sim.Proc) { e.ReadRecord(p, "k") })
	s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		l := e.rowLock("k")
		l.AcquireWrite(p)
		p.Sleep(100 * sim.Millisecond)
		l.ReleaseWrite()
	})
	s.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Second + sim.Millisecond)
		t0 := p.Now()
		e.ReadRecord(p, "k")
		readLatency = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if readLatency < 90*sim.Millisecond {
		t.Errorf("read-committed read latency %v, want >= ~99ms (blocked by writer)", readLatency)
	}
}

func TestReadUncommittedDoesNotBlock(t *testing.T) {
	s, e := newTestEngine(t, Config{Isolation: ReadUncommitted})
	e.LoadRecord("k", []byte("v"))
	var readLatency sim.Duration
	s.Spawn("warm", func(p *sim.Proc) { e.ReadRecord(p, "k") })
	s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		l := e.rowLock("k")
		l.AcquireWrite(p)
		p.Sleep(100 * sim.Millisecond)
		l.ReleaseWrite()
	})
	s.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Second + sim.Millisecond)
		t0 := p.Now()
		e.ReadRecord(p, "k")
		readLatency = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if readLatency > 10*sim.Millisecond {
		t.Errorf("read-uncommitted latency %v, want small (no lock wait)", readLatency)
	}
}

func TestCheckpointFlushesDirtyPages(t *testing.T) {
	s, e := newTestEngine(t, Config{CheckpointEvery: sim.Second})
	e.LoadRecord("k", make([]byte, 1024))
	e.StartBackground()
	s.Spawn("c", func(p *sim.Proc) {
		e.UpdateRecord(p, "k", make([]byte, 1024))
		p.Sleep(1500 * sim.Millisecond)
		e.StopBackground()
	})
	s.Run()
	if e.bp.DirtyCount() != 0 {
		t.Errorf("dirty pages after checkpoint = %d, want 0", e.bp.DirtyCount())
	}
	rounds, pages := e.ckpt.Stats()
	if rounds < 1 || pages < 1 {
		t.Errorf("checkpoint rounds=%d pages=%d, want >=1 each", rounds, pages)
	}
}

func TestStatsCount(t *testing.T) {
	s, e := newTestEngine(t, Config{})
	s.Spawn("c", func(p *sim.Proc) {
		e.InsertRecord(p, "a", []byte("1"))
		e.ReadRecord(p, "a")
		e.UpdateRecord(p, "a", []byte("2"))
		e.ScanRecords(p, "a", 1)
	})
	s.Run()
	r, u, i, sc := e.Stats()
	if r != 1 || u != 1 || i != 1 || sc != 1 {
		t.Errorf("stats = %d,%d,%d,%d; want 1 each", r, u, i, sc)
	}
}

func TestRIDRoundTrip(t *testing.T) {
	f := func(page uint32, slot uint8) bool {
		rid := RID{Page: PageID(page), Slot: int(slot)}
		return decodeRID(encodeRID(rid)) == rid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadRecordBulk(t *testing.T) {
	_, e := newTestEngine(t, Config{})
	for i := 0; i < 1000; i++ {
		e.LoadRecord(fmt.Sprintf("user%06d", i), make([]byte, 1024))
	}
	if e.Len() != 1000 {
		t.Errorf("len = %d, want 1000", e.Len())
	}
}
