// The single-node storage primitives the SQL-Server-like engine and
// the simulated mongod (package shard) share: 8 KB pages, an LRU buffer
// pool, a slotted heap file, and a B+tree index.
//
// They split into two concerns. The *functional* layer (heap file,
// B+tree) really stores records in host memory so queries return correct
// answers. The *residency* layer (BufferPool) models which pages would be
// memory-resident on the simulated hardware; engines consult it on every
// page touch and charge simulated disk time on misses. This is what lets
// a laptop-scale dataset reproduce the paper's "dataset is 2.5× memory"
// disk-bound behaviour.

package sqleng

// PageSize is the size of a database page in bytes. SQL Server uses 8 KB
// pages; the paper's Workload C analysis hinges on SQL Server reading
// 8 KB per buffer-pool miss while MongoDB reads 32 KB.
const PageSize = 8192

// PageID identifies a page within an engine instance.
type PageID int64

// RID is a record identifier: a page and a slot within it.
type RID struct {
	Page PageID
	Slot int
}
