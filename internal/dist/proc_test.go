package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"elephants/internal/tpch"
)

// TestMain lets this test binary double as the shard executable: when
// the cluster spawns os.Args[0] with shardEnv set, the child serves a
// shard instead of running the test suite.
func TestMain(m *testing.M) {
	if maybeShardMain() {
		return
	}
	os.Exit(m.Run())
}

// shardEnv is the env var that turns this test binary into a shard
// process: when set, it holds the shard's JSON ShardConfig and the
// process serves instead of running the tests.
const shardEnv = "DIST_SHARD_CONFIG"

// readyPrefix is the handshake line a shard process prints once it is
// recovered, caught up, and listening.
const readyPrefix = "DIST_SHARD_READY port="

// maybeShardMain checks shardEnv and, when set, runs the shard server
// until the process is killed. It returns false when the env var is
// absent — the binary runs its tests.
func maybeShardMain() bool {
	cfgJSON := os.Getenv(shardEnv)
	if cfgJSON == "" {
		return false
	}
	if err := shardMain(cfgJSON); err != nil {
		fmt.Fprintf(os.Stderr, "dist shard: %v\n", err)
		os.Exit(1)
	}
	return true
}

// shardMain boots a shard from its JSON config, prints the ready
// handshake, and serves until killed.
func shardMain(cfgJSON string) error {
	var cfg ShardConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("bad %s: %w", shardEnv, err)
	}
	s, err := StartShard(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s%d\n", readyPrefix, s.Port())
	os.Stdout.Sync()
	select {} // serve until killed; the parent owns our lifetime
}

// procCluster manages a set of shard OS processes: spawn, kill, restart
// (same port — the crash-recovery path), and teardown.
type procCluster struct {
	bin  string
	mu   sync.Mutex
	cfgs []ShardConfig
	cmds []*exec.Cmd
	addr []string
}

// startCluster spawns one process per config by re-executing bin with
// shardEnv set, waiting for every ready handshake. Ports reported by
// the children are pinned into the configs so a later Restart reuses
// them.
func startCluster(bin string, cfgs []ShardConfig) (*procCluster, error) {
	cl := &procCluster{
		bin:  bin,
		cfgs: append([]ShardConfig(nil), cfgs...),
		cmds: make([]*exec.Cmd, len(cfgs)),
		addr: make([]string, len(cfgs)),
	}
	for i := range cl.cfgs {
		if err := cl.spawn(i); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// spawn starts shard i and blocks until its ready line (or exit).
// Callers hold no lock; spawn takes it around state updates only.
func (cl *procCluster) spawn(i int) error {
	cl.mu.Lock()
	cfg := cl.cfgs[i]
	cl.mu.Unlock()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	cmd := exec.Command(cl.bin)
	cmd.Env = append(os.Environ(), shardEnv+"="+string(cfgJSON))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	port, err := awaitReady(stdout)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("dist: shard %d failed to start: %w", i, err)
	}
	// Drain the rest of stdout so the child never blocks on a full pipe.
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
		}
	}()
	cl.mu.Lock()
	cl.cmds[i] = cmd
	cl.cfgs[i].Port = port // pin for restarts
	cl.addr[i] = fmt.Sprintf("127.0.0.1:%d", port)
	cl.mu.Unlock()
	return nil
}

// awaitReady scans the child's stdout for the handshake, bounded by a
// generous boot timeout (dataset generation).
func awaitReady(stdout io.Reader) (int, error) {
	type res struct {
		port int
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, readyPrefix) {
				var port int
				if _, err := fmt.Sscanf(line, readyPrefix+"%d", &port); err != nil {
					ch <- res{0, err}
					return
				}
				ch <- res{port, nil}
				return
			}
		}
		ch <- res{0, fmt.Errorf("shard exited before ready: %v", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.port, r.err
	case <-time.After(2 * time.Minute):
		return 0, fmt.Errorf("timed out waiting for shard ready")
	}
}

// Addrs returns the shard addresses in shard order.
func (cl *procCluster) Addrs() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]string(nil), cl.addr...)
}

// Kill hard-kills shard i (SIGKILL — no shutdown grace) and reaps it.
func (cl *procCluster) Kill(i int) error {
	cl.mu.Lock()
	cmd := cl.cmds[i]
	cl.cmds[i] = nil
	cl.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("dist: shard %d not running", i)
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	cmd.Wait()
	return nil
}

// Restart re-spawns shard i with its pinned port; the child
// regenerates its partition.
func (cl *procCluster) Restart(i int) error {
	cl.mu.Lock()
	running := cl.cmds[i] != nil
	cl.mu.Unlock()
	if running {
		return fmt.Errorf("dist: shard %d still running", i)
	}
	return cl.spawn(i)
}

// Close kills every running shard.
func (cl *procCluster) Close() {
	cl.mu.Lock()
	cmds := append([]*exec.Cmd(nil), cl.cmds...)
	for i := range cl.cmds {
		cl.cmds[i] = nil
	}
	cl.mu.Unlock()
	for _, cmd := range cmds {
		if cmd != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// TestDistKillRestartMidStream is the crash test against real OS
// processes: run a query stream against two shard processes, SIGKILL
// one mid-stream, restart it on the same port, where it regenerates its
// partition, and require every answer in the stream — including those
// issued during the outage and those the regenerated shard serves —
// byte-identical to the golden snapshot.
func TestDistKillRestartMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	want := readGolden(t)
	gen := goldenGen()
	const n = 2
	cfgs := make([]ShardConfig, n)
	for i := range cfgs {
		cfgs[i] = ShardConfig{
			Shards: n, Index: i,
			SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64,
		}
	}
	cl, err := startCluster(os.Args[0], cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Attempt timeouts are generous: the shard children inherit this
	// binary's instrumentation (-race), so a full-table scan response
	// can take seconds. Outage retries stay fast regardless — dialing a
	// dead port fails immediately, so only the backoff paces them.
	c := NewCoordinatorDB(tpch.Generate(gen), cl.Addrs(), Options{
		AttemptTimeout: 15 * time.Second,
		MaxAttempts:    80,
		BackoffBase:    10 * time.Millisecond,
		BackoffCap:     250 * time.Millisecond,
		ProbeEvery:     -1,
	})
	defer c.Close()

	restartDone := make(chan error, 1)
	var got strings.Builder
	for qi, q := range tpch.Queries {
		if qi == 3 {
			// Mid-stream: hard-kill shard 1 and bring it back
			// concurrently with the continuing stream. Queries issued
			// during the outage must ride the retry loop to the exact
			// answer once the restarted shard serves.
			if err := cl.Kill(1); err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(200 * time.Millisecond)
				restartDone <- cl.Restart(1)
			}()
		}
		out, err := c.RunQuery(q.ID)
		if err != nil {
			t.Fatalf("Q%d during stream: %v (stats %v)", q.ID, err, c.Stats())
		}
		got.WriteString(tpch.FormatAnswer(q.ID, out))
	}
	if err := <-restartDone; err != nil {
		t.Fatalf("restart: %v", err)
	}
	diffSnapshot(t, got.String(), want)

	if c.Stats()[cRetries] == 0 {
		t.Fatalf("stream survived a kill without retries? %v", c.Stats())
	}
}

// TestDistProcessOutageTyped checks the other contract leg against
// real processes: with a tight retry budget and no restart, a query
// over the dead shard fails with a typed ErrPartial, never rows.
func TestDistProcessOutageTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	gen := goldenGen()
	cfgs := []ShardConfig{{
		Shards: 1, Index: 0,
		SF: gen.SF, Seed: gen.Seed, Random64: gen.Random64,
	}}
	cl, err := startCluster(os.Args[0], cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := NewCoordinatorDB(tpch.Generate(gen), cl.Addrs(), Options{
		AttemptTimeout: 200 * time.Millisecond,
		MaxAttempts:    2,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     10 * time.Millisecond,
		ProbeEvery:     -1,
	})
	defer c.Close()
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunQuery(6)
	if err == nil || !errors.Is(err, ErrPartial) {
		t.Fatalf("want ErrPartial, got table=%v err=%v", out != nil, err)
	}
}
