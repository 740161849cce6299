package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"elephants/internal/fault"
	"elephants/internal/relal"
	"elephants/internal/tpch"
)

// ErrPartial is the typed "the cluster could not produce a complete
// answer" failure: some shard stayed unreachable past the retry budget
// (or its circuit was open under FailFast). A query returns either the
// exact complete answer or an error wrapping ErrPartial — never a
// silently partial row set.
var ErrPartial = errors.New("dist: partial result")

// PartialError carries which shard broke the gather and why.
type PartialError struct {
	Shard int
	Err   error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("dist: partial result: shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the shard-level cause.
func (e *PartialError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrPartial) hold for every PartialError.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Coordinator counter names: the keys Stats reports them under.
const (
	cRequests      = "dist_requests"
	cRetries       = "dist_retries"
	cFailFast      = "dist_failfast"
	cBreakerTrips  = "dist_breaker_trips"
	cBreakerCloses = "dist_breaker_closes"
	cPartials      = "dist_partials"
)

// Options tune the coordinator's robustness machinery. Zero values get
// workable defaults.
type Options struct {
	// AttemptTimeout bounds one network attempt end to end (dial +
	// request + response); it is also the deadline budget shipped to
	// the shard. Default 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the retries of one logical call. Default 10.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// attempts (doubling from base, clamped at cap, plus seeded jitter
	// of up to half the step — the background converter's scheme).
	// Defaults 5ms / 250ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter; same seed, same jitter sequence.
	Seed int64
	// BreakerAfter consecutive failures open a shard's circuit breaker.
	// Default 3.
	BreakerAfter int
	// FailFast makes calls against an open breaker fail immediately
	// with ErrPartial instead of burning their retry budget; the health
	// prober is then the only path back to closed. Off, an open breaker
	// only records state — attempts continue and double as probes.
	FailFast bool
	// ProbeEvery is the health prober's interval (0 = 25ms, negative =
	// no prober). Probes bypass the network fault injector so fault
	// frame indices stay deterministic for the data plane.
	ProbeEvery time.Duration
	// Net injects network faults into every data-plane frame the
	// coordinator sends or receives.
	Net fault.NetSchedule
	// Workers sizes local plan execution (0 = tpch.DefaultWorkers).
	Workers int
	// NoFragments disables the fragment fast path, forcing every query
	// through the scattered-scan path (differential testing).
	NoFragments bool
}

func (o Options) withDefaults() Options {
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 10
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 250 * time.Millisecond
	}
	if o.BreakerAfter <= 0 {
		o.BreakerAfter = 3
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 25 * time.Millisecond
	}
	return o
}

// breakerState is one shard's circuit breaker.
type breakerState struct {
	mu    sync.Mutex
	fails int
	open  bool
}

// Coordinator owns the cluster-facing half: a local DB whose
// partitioned tables scan through scatter/gather, plus the retry,
// breaker, and probing machinery that keeps answers exact while shards
// misbehave.
type Coordinator struct {
	db       *tpch.DB
	addrs    []string
	opts     Options
	inj      *fault.NetInjector
	breakers []*breakerState

	// Robustness counters, reported by Stats under the c* keys.
	requests, retries, failFast, breakerTrips, breakerCloses, partials atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	stop     chan struct{}
	probeWG  sync.WaitGroup
	stopOnce sync.Once
}

// NewCoordinator builds the coordinator's replicated DB (same
// generator parameters as the shards) and wires the partitioned tables
// to scattered scans against addrs (one per shard, in shard order).
func NewCoordinator(gen tpch.GenConfig, addrs []string, opts Options) *Coordinator {
	return NewCoordinatorDB(tpch.Generate(gen), addrs, opts)
}

// NewCoordinatorDB is NewCoordinator over a pre-built DB — callers that
// stand up many coordinators against the same dataset (fuzzing, bench
// sweeps) skip regenerating it. The DB's partitioned-table sources are
// re-pointed at this coordinator, so only the newest coordinator built
// on a given DB may run queries.
func NewCoordinatorDB(db *tpch.DB, addrs []string, opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		db:       db,
		addrs:    addrs,
		opts:     opts,
		inj:      fault.NewNetInjector(opts.Net),
		breakers: make([]*breakerState, len(addrs)),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		stop:     make(chan struct{}),
	}
	for i := range c.breakers {
		c.breakers[i] = &breakerState{}
	}
	for name := range PartitionedTables {
		c.db.SetSource(name, &distSource{c: c, table: name, schema: c.db.Table(name).Schema})
	}
	if opts.ProbeEvery > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c
}

// Close stops the health prober.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
}

// DB exposes the coordinator's local database (replicated small tables
// plus dist-backed partitioned ones).
func (c *Coordinator) DB() *tpch.DB { return c.db }

// Stats snapshots the robustness counters, including injected network
// faults when an injector is armed.
func (c *Coordinator) Stats() map[string]int64 {
	out := map[string]int64{
		cRequests:      c.requests.Load(),
		cRetries:       c.retries.Load(),
		cFailFast:      c.failFast.Load(),
		cBreakerTrips:  c.breakerTrips.Load(),
		cBreakerCloses: c.breakerCloses.Load(),
		cPartials:      c.partials.Load(),
	}
	if c.inj != nil {
		out["net_faults_injected"] = int64(c.inj.Count())
	}
	return out
}

// RunQuery executes TPC-H query id against the cluster and returns the
// complete answer, or an error wrapping ErrPartial when some shard
// stayed unreachable. Registered fragments scatter as shard-local
// partial aggregates; everything else scatters the base-table scans and
// runs the unmodified single-process plan on the reassembled rows.
func (c *Coordinator) RunQuery(id int) (t *relal.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PartialError)
			if !ok {
				panic(r)
			}
			c.partials.Add(1)
			t, err = nil, pe
		}
	}()
	if frag, ok := tpch.Fragments[id]; ok && !c.opts.NoFragments {
		return c.runFragment(frag)
	}
	out, _ := tpch.RunQueryWorkers(id, c.db, c.workers())
	return out, nil
}

func (c *Coordinator) workers() int {
	if c.opts.Workers != 0 {
		return c.opts.Workers
	}
	return tpch.DefaultWorkers
}

// runFragment scatters a registered fragment and merges the partials.
func (c *Coordinator) runFragment(frag tpch.Fragment) (*relal.Table, error) {
	parts, _, err := c.scatter(Request{Op: OpFragment, FragID: frag.ID})
	if err != nil {
		c.partials.Add(1)
		return nil, err
	}
	e := &relal.Exec{Parallelism: c.workers()}
	return frag.Merge(e, parts), nil
}

// scatter fans req out to every shard concurrently and gathers the
// decoded tables in shard order, with their scan accounting summed; the
// first failed shard (lowest index) wins the error slot.
func (c *Coordinator) scatter(req Request) ([]*relal.Table, relal.ScanStats, error) {
	out := make([]*relal.Table, len(c.addrs))
	stats := make([]relal.ScanStats, len(c.addrs))
	errs := make([]error, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], stats[i], errs[i] = c.call(i, req)
		}(i)
	}
	wg.Wait()
	var total relal.ScanStats
	for i, err := range errs {
		if err != nil {
			return nil, total, &PartialError{Shard: i, Err: err}
		}
		total.Add(stats[i])
	}
	return out, total, nil
}

// call is one logical request: attempts with exponential backoff and
// seeded jitter until success, exhausted budget, or a fail-fast open
// breaker. An attempt succeeds only once its response has decoded into
// a well-formed table, so a shard that answers with malformed bytes is
// retried like one that did not answer.
func (c *Coordinator) call(i int, req Request) (*relal.Table, relal.ScanStats, error) {
	c.requests.Add(1)
	backoff := c.opts.BackoffBase
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(backoff + c.jitter(backoff))
			if backoff *= 2; backoff > c.opts.BackoffCap {
				backoff = c.opts.BackoffCap
			}
		}
		if c.opts.FailFast && c.breakerOpen(i) {
			c.failFast.Add(1)
			if lastErr == nil {
				lastErr = errors.New("circuit open")
			}
			return nil, relal.ScanStats{}, fmt.Errorf("dist: shard %d circuit open: %w", i, lastErr)
		}
		resp, err := c.attempt(i, req)
		var t *relal.Table
		if err == nil {
			t, err = c.tableOf(req, resp)
		}
		if err == nil {
			c.noteSuccess(i)
			return t, resp.Stats, nil
		}
		lastErr = err
		c.noteFailure(i)
	}
	return nil, relal.ScanStats{}, fmt.Errorf("dist: shard %d: retry budget exhausted: %w", i, lastErr)
}

// tableOf turns a response to req into its table, or into the error
// that fails the attempt: the shard's own, an encoding the decoder
// rejects, or a scan answer the merge could not trust.
func (c *Coordinator) tableOf(req Request, resp Response) (*relal.Table, error) {
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	if req.Op != OpScan {
		return decodeTable(resp, "partial")
	}
	want, err := scanSchema(c.db.Table(req.Table).Schema, req.Cols)
	if err != nil {
		return nil, err
	}
	t, err := decodeTable(resp, req.Table)
	if err == nil {
		err = checkScanPart(t, want)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// jitter returns a seeded random delay of up to half the backoff step.
func (c *Coordinator) jitter(b time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(b)/2 + 1))
}

// attempt is one request/response round trip over a fresh connection
// with a hard deadline, with the network fault injector (if armed)
// deciding each frame's fate.
func (c *Coordinator) attempt(i int, req Request) (Response, error) {
	deadline := time.Now().Add(c.opts.AttemptTimeout)
	req.DeadlineMS = int64(c.opts.AttemptTimeout / time.Millisecond)
	conn, err := net.DialTimeout("tcp", c.addrs[i], c.opts.AttemptTimeout)
	if err != nil {
		return Response{}, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	payload, err := EncodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	if err := c.sendFrame(conn, i, payload); err != nil {
		return Response{}, err
	}
	data, err := c.recvFrame(conn, i)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(data)
}

// sendFrame writes the request frame, applying the injected fate of
// the coordinator→shard message.
func (c *Coordinator) sendFrame(conn net.Conn, shard int, payload []byte) error {
	if c.inj == nil {
		return WriteFrame(conn, payload)
	}
	action, delay := c.inj.Next(fmt.Sprintf("coord->shard%d", shard))
	switch action {
	case fault.NetReset:
		conn.Close()
		return errors.New("dist: injected connection reset on send")
	case fault.NetDrop:
		// The shard never sees the request; the response read below
		// blocks until the attempt deadline — the slow-failure mode
		// deadlines exist for.
		return nil
	case fault.NetTruncate:
		// Ship length + half the payload, then hang up: the shard's
		// framed read fails and it drops the connection.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		conn.Write(hdr[:])
		conn.Write(payload[:len(payload)/2])
		conn.Close()
		return errors.New("dist: injected truncated request")
	case fault.NetDuplicate:
		if err := WriteFrame(conn, payload); err != nil {
			return err
		}
	case fault.NetDelay:
		time.Sleep(delay)
	}
	return WriteFrame(conn, payload)
}

// recvFrame reads the response frame, applying the injected fate of
// the shard→coordinator message.
func (c *Coordinator) recvFrame(conn net.Conn, shard int) ([]byte, error) {
	if c.inj != nil {
		action, delay := c.inj.Next(fmt.Sprintf("shard%d->coord", shard))
		switch action {
		case fault.NetReset:
			conn.Close()
			return nil, errors.New("dist: injected connection reset on receive")
		case fault.NetDrop:
			return nil, errors.New("dist: injected dropped response")
		case fault.NetTruncate:
			// Receive the real bytes, tear off the tail, and push the
			// torn message through the framed reader — the CRC/length
			// layer must reject it.
			raw, err := readRawFrame(conn)
			if err != nil {
				return nil, err
			}
			torn := raw[:len(raw)-len(raw)/4-1]
			if _, err := ReadFrame(bytes.NewReader(torn)); err != nil {
				return nil, fmt.Errorf("dist: injected torn response rejected: %w", err)
			}
			return nil, errors.New("dist: injected torn response escaped the CRC check")
		case fault.NetDuplicate:
			// Duplicate delivery of a response is benign: the extra
			// copy dies with the connection.
		case fault.NetDelay:
			time.Sleep(delay)
		}
	}
	return ReadFrame(conn)
}

func (c *Coordinator) breakerOpen(i int) bool {
	b := c.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

func (c *Coordinator) noteFailure(i int) {
	b := c.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= c.opts.BreakerAfter && !b.open {
		b.open = true
		c.breakerTrips.Add(1)
	}
}

func (c *Coordinator) noteSuccess(i int) {
	b := c.breakers[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.open {
		b.open = false
		c.breakerCloses.Add(1)
	}
}

// probeLoop health-checks shards whose breaker is open and closes the
// breaker on a successful probe, restoring fail-fast shards to service
// without waiting for a query to gamble on them.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.opts.ProbeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			for i := range c.addrs {
				if !c.breakerOpen(i) {
					continue
				}
				if _, err := c.Health(i); err == nil {
					c.noteSuccess(i)
				}
			}
		}
	}
}

// Health runs one health round trip against shard i and returns its
// delta-log positions. It is also the breaker's probe, so it bypasses
// the fault injector: probes must not consume fault-schedule frames, or
// background timing would change which data-plane frames get faulted.
func (c *Coordinator) Health(i int) (map[string]int64, error) {
	conn, err := net.DialTimeout("tcp", c.addrs[i], c.opts.AttemptTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.opts.AttemptTimeout))
	payload, err := EncodeRequest(Request{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(conn, payload); err != nil {
		return nil, err
	}
	data, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(data)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.NextPos, nil
}

// distSource is the relal.Source a partitioned table scans through on
// the coordinator: scatter the (column, predicate) request and merge
// the shards' surviving rows back into global row order on the hidden
// position column. Pruning stays conservative (a shard may return rows
// its groups couldn't rule out) and plans re-apply their exact filters,
// so the reassembled scan is answer-equivalent to the local one.
// relal.Source has no error channel — a failed gather panics a
// *PartialError that Coordinator.RunQuery recovers into a typed error.
type distSource struct {
	c      *Coordinator
	table  string
	schema relal.Schema
}

func (d *distSource) SrcName() string { return d.table }

func (d *distSource) SrcSchema() relal.Schema { return d.schema }

func (d *distSource) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	reqCols := cols
	if len(cols) > 0 {
		reqCols = append(append(make([]string, 0, len(cols)+1), cols...), PosCol)
	}
	parts, stats, err := d.c.scatter(Request{Op: OpScan, Table: d.table, Cols: reqCols, Pred: pred})
	if err != nil {
		panic(err)
	}
	out, err := mergeByPos(d.table, parts)
	if err != nil {
		panic(err)
	}
	return out, stats
}
