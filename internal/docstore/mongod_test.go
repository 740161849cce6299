// The simulated mongod that stores these documents lives in
// internal/shard, beside the Mongo-AS and Mongo-CS front-ends built
// from it; its tests stay here, as an external test package, under the
// names the suite has always reported them with. docstore itself
// imports no repo package.
package docstore_test

import (
	"fmt"
	"testing"

	"elephants/internal/cluster"
	"elephants/internal/docstore"
	"elephants/internal/shard"
	"elephants/internal/sim"
)

func newTestMongod(cfg shard.MongodConfig) (*sim.Sim, *shard.Mongod) {
	s := sim.New()
	cl := cluster.New(s, cluster.Config{Nodes: 1})
	return s, shard.NewMongod(s, cl.Nodes[0], cfg)
}

func ycsbDoc(id string) *docstore.Doc {
	d := docstore.NewDoc(docstore.Field{Key: "_id", Val: id})
	for i := 0; i < 10; i++ {
		d.Set(fmt.Sprintf("field%d", i), string(make([]byte, 100)))
	}
	return d
}

// diskBusy sums the busy time of every disk on the mongod's node.
func diskBusy(m *shard.Mongod) sim.Duration {
	var total sim.Duration
	for _, d := range m.Node().Disks {
		total += d.BusyTime()
	}
	return total
}

func TestMongodInsertFind(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	var got *docstore.Doc
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		if err = m.Insert(p, ycsbDoc("user1")); err != nil {
			return
		}
		got, err = m.FindByID(p, "user1")
	})
	s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("_id"); v.(string) != "user1" {
		t.Errorf("_id = %v", v)
	}
}

func TestMongodDuplicateInsert(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		m.Insert(p, ycsbDoc("u"))
		err = m.Insert(p, ycsbDoc("u"))
	})
	s.Run()
	if err == nil {
		t.Error("duplicate insert should fail")
	}
}

func TestMongodMissingID(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		err = m.Insert(p, docstore.NewDoc(docstore.Field{Key: "x", Val: "y"}))
	})
	s.Run()
	if err == nil {
		t.Error("insert without _id should fail")
	}
}

func TestMongodUpdateField(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	var got *docstore.Doc
	s.Spawn("c", func(p *sim.Proc) {
		m.Insert(p, ycsbDoc("u"))
		m.UpdateByID(p, "u", "field3", "updated")
		got, _ = m.FindByID(p, "u")
	})
	s.Run()
	if v, _ := got.Get("field3"); v.(string) != "updated" {
		t.Errorf("field3 = %q", v)
	}
}

func TestMongodUpdateMissing(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	var err error
	s.Spawn("c", func(p *sim.Proc) {
		err = m.UpdateByID(p, "ghost", "f", "v")
	})
	s.Run()
	if err == nil {
		t.Error("update of missing doc should fail")
	}
}

func TestMongodScanOrdered(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	for i := 0; i < 30; i++ {
		m.Load(ycsbDoc(fmt.Sprintf("user%03d", i)))
	}
	var docs []*docstore.Doc
	s.Spawn("c", func(p *sim.Proc) {
		docs, _ = m.ScanRange(p, "user010", 5)
	})
	s.Run()
	if len(docs) != 5 {
		t.Fatalf("scan returned %d docs, want 5", len(docs))
	}
	if v, _ := docs[0].Get("_id"); v.(string) != "user010" {
		t.Errorf("first _id = %v", v)
	}
}

func TestGlobalWriteLockBlocksReaders(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	m.Load(ycsbDoc("a"))
	m.Load(ycsbDoc("b"))
	// Warm residency so only the lock matters.
	var readLatency sim.Duration
	s.Spawn("warm", func(p *sim.Proc) {
		m.FindByID(p, "a")
		m.FindByID(p, "b")
	})
	s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		m.GlobalLock().AcquireWrite(p)
		p.Sleep(200 * sim.Millisecond)
		m.GlobalLock().ReleaseWrite()
	})
	s.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(sim.Second + sim.Millisecond)
		t0 := p.Now()
		m.FindByID(p, "b") // different document — still blocked (global lock)
		readLatency = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if readLatency < 190*sim.Millisecond {
		t.Errorf("reader latency %v, want >= ~199ms: global write lock must block unrelated reads", readLatency)
	}
}

func TestWriteBusyAccounting(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	m.Load(ycsbDoc("u"))
	s.Spawn("c", func(p *sim.Proc) {
		m.UpdateByID(p, "u", "field1", "v")
	})
	s.Run()
	if m.GlobalLock().WriteBusy() <= 0 {
		t.Error("global lock write busy time should be positive after an update")
	}
}

func TestJournalAddsCommitLatency(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{Journal: true})
	m.Load(ycsbDoc("u"))
	var lat sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		// Warm up residency first.
		m.FindByID(p, "u")
		t0 := p.Now()
		m.UpdateByID(p, "u", "field1", "v")
		lat = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if lat < shard.JournalFlushInterval {
		t.Errorf("journaled update latency %v, want >= %v", lat, shard.JournalFlushInterval)
	}
}

func TestNoJournalIsFaster(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{})
	m.Load(ycsbDoc("u"))
	var lat sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		m.FindByID(p, "u")
		t0 := p.Now()
		m.UpdateByID(p, "u", "field1", "v")
		lat = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if lat >= shard.JournalFlushInterval {
		t.Errorf("unjournaled update latency %v, want < %v", lat, shard.JournalFlushInterval)
	}
}

// TestBackgroundFlusherClearsDirty: the first flush after an update
// writes the dirty extent back; the next finds nothing dirty and
// writes nothing.
func TestBackgroundFlusherClearsDirty(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{FlushEvery: sim.Second})
	m.Load(ycsbDoc("u"))
	m.StartBackground()
	var first, second sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		m.UpdateByID(p, "u", "field1", "v")
		busy := diskBusy(m)
		p.Sleep(1500 * sim.Millisecond) // past the flush at 1 s
		first, busy = diskBusy(m)-busy, diskBusy(m)
		p.Sleep(sim.Second) // past the flush at 2 s
		second = diskBusy(m) - busy
		m.StopBackground()
	})
	s.Run()
	if first <= 0 {
		t.Error("the flush after an update wrote nothing")
	}
	if second != 0 {
		t.Errorf("the next flush spent %v on disk, want 0: dirty extents were not cleared", second)
	}
}

func TestColdReadFaults32KB(t *testing.T) {
	s, m := newTestMongod(shard.MongodConfig{ResidentExtents: 1})
	for i := 0; i < 200; i++ {
		m.Load(ycsbDoc(fmt.Sprintf("user%04d", i)))
	}
	var lat sim.Duration
	s.Spawn("c", func(p *sim.Proc) {
		t0 := p.Now()
		m.FindByID(p, "user0150")
		lat = sim.Duration(p.Now() - t0)
	})
	s.Run()
	if lat < 6*sim.Millisecond {
		t.Errorf("cold read latency %v, want >= seek time", lat)
	}
}

// TestExtentPacking: ~1 KB documents pack about 30 to a 32 KB extent,
// so 100 of them occupy 3 to 6 extents. A second in-order read pass
// (the 100 ids fit one index page) is free of disk I/O when 6 extents
// stay resident, and faults when only 2 do.
func TestExtentPacking(t *testing.T) {
	rereadDisk := func(resident int) sim.Duration {
		s, m := newTestMongod(shard.MongodConfig{ResidentExtents: resident})
		for i := 0; i < 100; i++ {
			m.Load(ycsbDoc(fmt.Sprintf("user%04d", i)))
		}
		var d sim.Duration
		s.Spawn("c", func(p *sim.Proc) {
			pass := func() {
				for i := 0; i < 100; i++ {
					m.FindByID(p, fmt.Sprintf("user%04d", i))
				}
			}
			pass()
			busy := diskBusy(m)
			pass()
			d = diskBusy(m) - busy
		})
		s.Run()
		return d
	}
	if d := rereadDisk(6); d != 0 {
		t.Errorf("100×1KB docs overflow 6 extents: a warm re-read spent %v on disk", d)
	}
	if d := rereadDisk(2); d == 0 {
		t.Error("100×1KB docs fit in 2 extents, want at least 3")
	}
}

func TestExportRangeRemovesAndReturns(t *testing.T) {
	_, m := newTestMongod(shard.MongodConfig{})
	for i := 0; i < 20; i++ {
		m.Load(ycsbDoc(fmt.Sprintf("user%03d", i)))
	}
	docs := m.ExportRange("user005", "user010")
	if len(docs) != 5 {
		t.Fatalf("exported %d docs, want 5", len(docs))
	}
	if m.Count() != 15 {
		t.Errorf("remaining = %d, want 15", m.Count())
	}
	for _, d := range docs {
		id, _ := d.Get("_id")
		if s := id.(string); s < "user005" || s >= "user010" {
			t.Errorf("exported out-of-range doc %s", s)
		}
	}
}

func TestExportRangeUnbounded(t *testing.T) {
	_, m := newTestMongod(shard.MongodConfig{})
	for i := 0; i < 10; i++ {
		m.Load(ycsbDoc(fmt.Sprintf("user%03d", i)))
	}
	docs := m.ExportRange("user005", "")
	if len(docs) != 5 {
		t.Errorf("unbounded export = %d docs, want 5", len(docs))
	}
}

func TestImportDocsRestores(t *testing.T) {
	s, a := newTestMongod(shard.MongodConfig{})
	b := shard.NewMongod(s, a.Node(), shard.MongodConfig{})
	for i := 0; i < 10; i++ {
		a.Load(ycsbDoc(fmt.Sprintf("user%03d", i)))
	}
	b.ImportDocs(a.ExportRange("user000", ""))
	if b.Count() != 10 || a.Count() != 0 {
		t.Fatalf("after migration: a=%d b=%d, want 0/10", a.Count(), b.Count())
	}
	// Migrated docs must be readable on the destination.
	var err error
	s.Spawn("r", func(p *sim.Proc) {
		_, err = b.FindByID(p, "user007")
	})
	s.Run()
	if err != nil {
		t.Errorf("read after import: %v", err)
	}
}

func TestKeyAt(t *testing.T) {
	_, m := newTestMongod(shard.MongodConfig{})
	for i := 0; i < 10; i++ {
		m.Load(ycsbDoc(fmt.Sprintf("user%03d", i)))
	}
	if k, ok := m.KeyAt("user000", 4); !ok || k != "user004" {
		t.Errorf("KeyAt = %q,%v", k, ok)
	}
	if _, ok := m.KeyAt("user000", 50); ok {
		t.Error("KeyAt past end should report false")
	}
}

func TestDataBytes(t *testing.T) {
	_, m := newTestMongod(shard.MongodConfig{})
	m.Load(ycsbDoc("u"))
	if m.DataBytes() < 1000 {
		t.Errorf("data bytes = %d, want >= 1000 (one 1KB doc)", m.DataBytes())
	}
}
