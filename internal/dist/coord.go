package dist

import (
	"errors"
	"fmt"
	"math/rand"
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
	// AttemptTimeout bounds one network attempt end to end (request +
	// response, plus the dial when no kept session is idle, or the one
	// redial of a session the shard hung up on); it is also the deadline
	// budget shipped to the shard. Default 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the retries of one logical call. Default 10.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// attempts (doubling from base, clamped at cap, plus seeded jitter
	// of up to half the step).
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

	// idle holds each shard's kept sessions, not in use; closed makes
	// sessions handed back after Close close instead.
	idleMu sync.Mutex
	idle   [][]*session
	closed bool
}

// NewCoordinatorDB wires db's partitioned tables to scattered scans
// against addrs (one per shard, in shard order); db is the
// coordinator's replicated copy, generated with the shards' parameters.
// The DB's partitioned-table sources are re-pointed at this coordinator,
// so only the newest coordinator built on a given DB may run queries.
func NewCoordinatorDB(db *tpch.DB, addrs []string, opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		db:       db,
		addrs:    addrs,
		opts:     opts,
		inj:      fault.NewNetInjector(opts.Net),
		breakers: make([]*breakerState, len(addrs)),
		idle:     make([][]*session, len(addrs)),
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

// Close stops the health prober and closes the idle sessions.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	c.closed = true
	for i, idle := range c.idle {
		for _, s := range idle {
			s.conn.Close()
		}
		c.idle[i] = nil
	}
}

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
	out, _ := tpch.RunQuery(id, c.db)
	return out, nil
}

// runFragment scatters a registered fragment and merges the partials.
func (c *Coordinator) runFragment(frag tpch.Fragment) (*relal.Table, error) {
	parts, _, err := c.scatter(Request{Op: OpFragment, FragID: frag.ID})
	if err != nil {
		c.partials.Add(1)
		return nil, err
	}
	e := &relal.Exec{Parallelism: tpch.DefaultWorkers}
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
		t, stats, err := c.attempt(i, req)
		if err == nil {
			c.noteSuccess(i)
			return t, stats, nil
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

// attempt is one request/response exchange with shard i under a hard
// deadline, with the network fault injector (if armed) deciding each
// frame's fate. It succeeds only once the response has decoded into a
// well-formed table.
func (c *Coordinator) attempt(i int, req Request) (t *relal.Table, stats relal.ScanStats, err error) {
	req.DeadlineMS = int64(c.opts.AttemptTimeout / time.Millisecond)
	err = c.exchange(i, req, c.inj, func(resp Response) (err error) {
		t, err = c.tableOf(req, resp)
		stats = resp.Stats
		return err
	})
	return t, stats, err
}

// exchange sends req to shard i and hands the answer to accept, all
// within one AttemptTimeout. It runs on a kept session when one is idle
// and on a fresh connection otherwise. The session is kept again only
// if the exchange and accept succeeded and the injector let both frames
// through intact; any error closes it. A kept session that fails before
// any byte of the answer arrives was most likely closed by the shard
// while idle (a restart, an idle timeout), so the request is re-sent
// once on a fresh connection, and only the outcome of that counts.
func (c *Coordinator) exchange(i int, req Request, inj *fault.NetInjector, accept func(Response) error) error {
	deadline := time.Now().Add(c.opts.AttemptTimeout)
	s := c.takeSession(i)
	for {
		if s == nil {
			var err error
			if s, err = dialSession(c.addrs[i], deadline); err != nil {
				return err
			}
		}
		resp, clean, err := s.roundTrip(i, req, deadline, inj)
		var hangup *hangupError
		if s.used && errors.As(err, &hangup) {
			s.conn.Close()
			s = nil
			continue
		}
		if err == nil {
			err = accept(resp)
		}
		if err == nil && clean {
			c.keepSession(i, s)
		} else {
			s.conn.Close()
		}
		return err
	}
}

// takeSession returns one of shard i's idle sessions, or nil.
func (c *Coordinator) takeSession(i int) *session {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	idle := c.idle[i]
	if len(idle) == 0 {
		return nil
	}
	s := idle[len(idle)-1]
	c.idle[i] = idle[:len(idle)-1]
	return s
}

// keepSession puts s on shard i's idle list, or closes it once the
// coordinator is closed.
func (c *Coordinator) keepSession(i int, s *session) {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	if c.closed {
		s.conn.Close()
		return
	}
	c.idle[i] = append(c.idle[i], s)
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
	var pos map[string]int64
	err := c.exchange(i, Request{Op: OpHealth}, nil, func(resp Response) error {
		if resp.Err != "" {
			return errors.New(resp.Err)
		}
		pos = resp.NextPos
		return nil
	})
	return pos, err
}

// distSource is the relal.Source a partitioned table scans through on
// the coordinator: scatter the (column, predicate) request and merge
// the shards' matching rows back into global row order on the hidden
// position column. Each shard applies the pushed conditions row by row
// before shipping (key sets too), and each plan applies them again (its
// Where through relal.ZoneCond.On, a key set through its join), so the
// reassembled scan is answer-equivalent to the local one.
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
