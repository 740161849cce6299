package shard

import (
	"errors"
	"fmt"

	"elephants/internal/cluster"
	"elephants/internal/docstore"
	"elephants/internal/sim"
	"elephants/internal/sqleng"
)

// Store is the client-visible interface the YCSB harness drives. Every
// operation is issued on behalf of a client index, which determines the
// client node whose NIC the request charges.
type Store interface {
	// Name identifies the system ("Mongo-AS", "Mongo-CS", "SQL-CS").
	Name() string
	// Read fetches all fields of the record.
	Read(p *sim.Proc, client int, key string) error
	// Update overwrites one field of the record.
	Update(p *sim.Proc, client int, key string, field int, value string) error
	// Insert adds a new record with the given field values.
	Insert(p *sim.Proc, client int, key string, fields []string) error
	// Scan reads up to limit records in key order starting at start,
	// returning how many were read.
	Scan(p *sim.Proc, client int, start string, limit int) (int, error)
	// Load bulk-inserts a record outside the measured region.
	Load(key string, fields []string) error
}

// ErrCrashed is returned once a system has crashed (Mongo-AS under
// append-heavy overload, per the paper's Workload D observation).
var ErrCrashed = errors.New("shard: system crashed (append overload)")

// Wire-size constants for request/reply charging (bytes).
const (
	readReqBytes   = 100
	updateReqBytes = 250
	insertReqBytes = 1200
	scanReqBytes   = 120
	recordBytes    = 1100 // 24 B key + 10×100 B fields + framing
	ackBytes       = 50
)

// FieldCount is the YCSB record field count.
const FieldCount = 10

// ycsbDoc builds the BSON document for a YCSB record.
func ycsbDoc(key string, fields []string) *docstore.Doc {
	d := docstore.NewDoc(docstore.Field{Key: "_id", Val: key})
	for i, v := range fields {
		d.Set(fmt.Sprintf("field%d", i), v)
	}
	return d
}

// encodeRecord flattens fields for the SQL engine's opaque row payload.
func encodeRecord(fields []string) []byte {
	var out []byte
	for _, f := range fields {
		out = append(out, f...)
	}
	return out
}

// SQLCS is client-side-sharded SQL Server: one engine per server node,
// clients hash keys to engines and talk to them directly with stored
// procedures.
type SQLCS struct {
	engines []*sqleng.Engine
	clients []*cluster.Node
	hash    *HashShards
}

// NewSQLCS builds the SQL-CS front-end over the given engines and client
// nodes.
func NewSQLCS(engines []*sqleng.Engine, clients []*cluster.Node) *SQLCS {
	return &SQLCS{engines: engines, clients: clients, hash: NewHashShards(len(engines))}
}

// Name implements Store.
func (s *SQLCS) Name() string { return "SQL-CS" }

func (s *SQLCS) clientNode(client int) *cluster.Node {
	return s.clients[client%len(s.clients)]
}

// Read implements Store.
func (s *SQLCS) Read(p *sim.Proc, client int, key string) error {
	eng := s.engines[s.hash.ShardFor(key)]
	cn := s.clientNode(client)
	cn.Send(p, eng.Node(), readReqBytes)
	if _, err := eng.ReadRecord(p, key); err != nil {
		return err
	}
	eng.Node().Send(p, cn, recordBytes)
	return nil
}

// Update implements Store.
func (s *SQLCS) Update(p *sim.Proc, client int, key string, field int, value string) error {
	eng := s.engines[s.hash.ShardFor(key)]
	cn := s.clientNode(client)
	cn.Send(p, eng.Node(), updateReqBytes)
	rec, err := eng.ReadRecord(p, key)
	if err != nil {
		return err
	}
	// Overwrite the field slice in place (fixed-width fields).
	updated := make([]byte, len(rec))
	copy(updated, rec)
	start := field * 100
	if start+len(value) <= len(updated) {
		copy(updated[start:], value)
	}
	if err := eng.UpdateRecord(p, key, updated); err != nil {
		return err
	}
	eng.Node().Send(p, cn, ackBytes)
	return nil
}

// Insert implements Store.
func (s *SQLCS) Insert(p *sim.Proc, client int, key string, fields []string) error {
	eng := s.engines[s.hash.ShardFor(key)]
	cn := s.clientNode(client)
	cn.Send(p, eng.Node(), insertReqBytes)
	if err := eng.InsertRecord(p, key, encodeRecord(fields)); err != nil {
		return err
	}
	eng.Node().Send(p, cn, ackBytes)
	return nil
}

// Scan implements Store. Hash partitioning cannot tell which shards hold
// the range, so the client fans out to every engine in parallel and
// merges, discarding overshoot — the paper's explanation for SQL-CS and
// Mongo-CS losing Workload E.
func (s *SQLCS) Scan(p *sim.Proc, client int, start string, limit int) (int, error) {
	cn := s.clientNode(client)
	counts := make([]int, len(s.engines))
	wg := p.Sim().NewWaitGroup()
	wg.Add(len(s.engines))
	for i, eng := range s.engines {
		i, eng := i, eng
		p.Sim().Spawn("scan-fanout", func(sp *sim.Proc) {
			defer wg.Done()
			cn.Send(sp, eng.Node(), scanReqBytes)
			recs, err := eng.ScanRecords(sp, start, limit)
			if err != nil {
				return
			}
			counts[i] = len(recs)
			eng.Node().Send(sp, cn, int64(len(recs))*recordBytes)
		})
	}
	wg.Wait(p)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total > limit {
		total = limit
	}
	return total, nil
}

// Load implements Store.
func (s *SQLCS) Load(key string, fields []string) error {
	s.engines[s.hash.ShardFor(key)].LoadRecord(key, encodeRecord(fields))
	return nil
}

// LoadTimed inserts one record as its own transaction, as the paper's
// SQL-CS load phase did (no bulk insert method was used).
func (s *SQLCS) LoadTimed(p *sim.Proc, client int, key string, fields []string) error {
	return s.Insert(p, client, key, fields)
}

// MongoCS is client-side-sharded MongoDB: clients hash keys straight to
// mongod processes; no mongos, config server, or balancer.
type MongoCS struct {
	mongods []*Mongod
	clients []*cluster.Node
	hash    *HashShards
}

// NewMongoCS builds the Mongo-CS front-end.
func NewMongoCS(mongods []*Mongod, clients []*cluster.Node) *MongoCS {
	return &MongoCS{mongods: mongods, clients: clients, hash: NewHashShards(len(mongods))}
}

// Name implements Store.
func (m *MongoCS) Name() string { return "Mongo-CS" }

func (m *MongoCS) clientNode(client int) *cluster.Node {
	return m.clients[client%len(m.clients)]
}

// Read implements Store.
func (m *MongoCS) Read(p *sim.Proc, client int, key string) error {
	md := m.mongods[m.hash.ShardFor(key)]
	cn := m.clientNode(client)
	cn.Send(p, md.Node(), readReqBytes)
	if _, err := md.FindByID(p, key); err != nil {
		return err
	}
	md.Node().Send(p, cn, recordBytes)
	return nil
}

// Update implements Store.
func (m *MongoCS) Update(p *sim.Proc, client int, key string, field int, value string) error {
	md := m.mongods[m.hash.ShardFor(key)]
	cn := m.clientNode(client)
	cn.Send(p, md.Node(), updateReqBytes)
	if err := md.UpdateByID(p, key, fmt.Sprintf("field%d", field), value); err != nil {
		return err
	}
	// Safe mode: wait for the server acknowledgement.
	md.Node().Send(p, cn, ackBytes)
	return nil
}

// Insert implements Store.
func (m *MongoCS) Insert(p *sim.Proc, client int, key string, fields []string) error {
	md := m.mongods[m.hash.ShardFor(key)]
	cn := m.clientNode(client)
	cn.Send(p, md.Node(), insertReqBytes)
	if err := md.Insert(p, ycsbDoc(key, fields)); err != nil {
		return err
	}
	md.Node().Send(p, cn, ackBytes)
	return nil
}

// Scan implements Store, fanning out to every mongod (hash partitioning).
func (m *MongoCS) Scan(p *sim.Proc, client int, start string, limit int) (int, error) {
	cn := m.clientNode(client)
	counts := make([]int, len(m.mongods))
	wg := p.Sim().NewWaitGroup()
	wg.Add(len(m.mongods))
	for i, md := range m.mongods {
		i, md := i, md
		p.Sim().Spawn("scan-fanout", func(sp *sim.Proc) {
			defer wg.Done()
			cn.Send(sp, md.Node(), scanReqBytes)
			docs, err := md.ScanRange(sp, start, limit)
			if err != nil {
				return
			}
			counts[i] = len(docs)
			md.Node().Send(sp, cn, int64(len(docs))*recordBytes)
		})
	}
	wg.Wait(p)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total > limit {
		total = limit
	}
	return total, nil
}

// Load implements Store.
func (m *MongoCS) Load(key string, fields []string) error {
	return m.mongods[m.hash.ShardFor(key)].Load(ycsbDoc(key, fields))
}
