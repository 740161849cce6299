package fault

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNetInjectorDeterministic pins the replay contract: two injectors
// with the same schedule hand out identical action sequences, because a
// frame's fate is a pure function of (seed, frame index).
func TestNetInjectorDeterministic(t *testing.T) {
	sched := NetSchedule{Seed: 42, DropNth: 5, TruncNth: 7, DupNth: 3, ResetNth: 11, DelayNth: 4}
	a, b := NewNetInjector(sched), NewNetInjector(sched)
	faulted := 0
	for k := 0; k < 500; k++ {
		aAct, aDelay := a.Next("s")
		bAct, bDelay := b.Next("s")
		if aAct != bAct || aDelay != bDelay {
			t.Fatalf("frame %d: injectors diverge: %v/%v vs %v/%v", k, aAct, aDelay, bAct, bDelay)
		}
		if aAct != NetNone {
			faulted++
		}
		if aAct == NetDelay && aDelay != time.Millisecond {
			t.Fatalf("frame %d: delay %v, want default 1ms", k, aDelay)
		}
	}
	if faulted == 0 {
		t.Fatal("schedule with every class armed injected nothing in 500 frames")
	}
	if a.Count() != faulted {
		t.Fatalf("Count() = %d, want %d", a.Count(), faulted)
	}
	if !reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatal("identical schedules rendered different fault logs")
	}
	// A different seed must scramble which frames are hit.
	c := NewNetInjector(NetSchedule{Seed: 43, DropNth: 5, TruncNth: 7, DupNth: 3, ResetNth: 11, DelayNth: 4})
	for k := 0; k < 500; k++ {
		c.Next("s")
	}
	if reflect.DeepEqual(a.Faults(), c.Faults()) {
		t.Fatal("different seeds produced the identical 500-frame fault log")
	}
}

// TestNetInjectorFirstFrameSafe: frame 0 must never fault, so every
// connection can make some progress even under the harshest schedule.
func TestNetInjectorFirstFrameSafe(t *testing.T) {
	inj := NewNetInjector(NetSchedule{Seed: 7, DropNth: 1, TruncNth: 1, DupNth: 1, ResetNth: 1, DelayNth: 1})
	if act, _ := inj.Next("conn"); act != NetNone {
		t.Fatalf("frame 0 faulted: %v", act)
	}
	// With every class armed at Nth=1, every later frame resets (the
	// most disruptive class wins the priority order).
	for k := 1; k < 10; k++ {
		if act, _ := inj.Next("conn"); act != NetReset {
			t.Fatalf("frame %d: got %v, want reset (priority order)", k, act)
		}
	}
}

// TestNetInjectorDisabled: a zero schedule is disabled and yields a nil
// injector, which the wire layer uses to skip fault wrapping entirely.
func TestNetInjectorDisabled(t *testing.T) {
	if (NetSchedule{}).Enabled() {
		t.Fatal("zero schedule reports Enabled")
	}
	if inj := NewNetInjector(NetSchedule{Seed: 9, Delay: time.Second}); inj != nil {
		t.Fatalf("disabled schedule built an injector: %+v", inj)
	}
	if !(NetSchedule{DropNth: 2}).Enabled() {
		t.Fatal("armed schedule reports disabled")
	}
}

// TestFaultLogConcurrentFilesDeterministic is the regression test for
// the fault-log ordering fix (the log both injectors share): N
// goroutines each fault their own stream concurrently, and Faults()
// must render grouped by stream in sorted order with each stream's
// entries in its own operation order — never in raw wall-clock
// interleaving. Two snapshots must render identically.
func TestFaultLogConcurrentFilesDeterministic(t *testing.T) {
	const writers, per = 6, 5
	// Every frame but the first resets.
	inj := NewNetInjector(NetSchedule{Seed: 3, ResetNth: 1})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				inj.Next(fmt.Sprintf("stream-%d", w))
			}
		}(w)
	}
	wg.Wait()
	log := inj.Faults()
	if len(log) != writers*per-1 {
		t.Fatalf("logged %d faults, want %d", len(log), writers*per-1)
	}
	if !reflect.DeepEqual(log, inj.Faults()) {
		t.Fatal("two renders of the same log differ")
	}
	// Grouped: each stream's entries form one contiguous block, streams
	// in sorted order, and within a block the global frame indices
	// strictly increase (per-stream operation order is preserved).
	seen := map[string]bool{}
	prevStream, prevFrame := "", -1
	for _, msg := range log {
		var frame int
		var stream string
		if _, err := fmt.Sscanf(msg, "reset frame %d on %s", &frame, &stream); err != nil {
			t.Fatalf("unparseable fault %q: %v", msg, err)
		}
		if stream != prevStream {
			if seen[stream] {
				t.Fatalf("stream %s split across blocks:\n%s", stream, strings.Join(log, "\n"))
			}
			if stream < prevStream {
				t.Fatalf("streams out of sorted order: %s after %s", stream, prevStream)
			}
			seen[stream] = true
			prevStream, prevFrame = stream, -1
		}
		if frame <= prevFrame {
			t.Fatalf("%s: per-stream order broken: frame %d after %d", stream, frame, prevFrame)
		}
		prevFrame = frame
	}
	if len(seen) != writers {
		t.Fatalf("log covers %d streams, want %d", len(seen), writers)
	}
}
