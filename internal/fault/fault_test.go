package fault

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestFaultMemFSSyncedSurvivesCrash(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Open("log")
	if err != nil {
		t.Fatal(err)
	}
	f.Append([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Append([]byte("-unsynced-tail"))
	fs.Crash(42)
	data, err := fs.ReadFile("log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("durable")) {
		t.Fatalf("synced prefix lost: %q", data)
	}
	if len(data) > len("durable-unsynced-tail") {
		t.Fatalf("crash grew the file: %q", data)
	}
	// The surviving tail must be a prefix of what was appended.
	if !bytes.HasPrefix([]byte("durable-unsynced-tail"), data) {
		t.Fatalf("survivor %q is not a write prefix", data)
	}
}

func TestFaultMemFSCrashDeterministic(t *testing.T) {
	build := func() *MemFS {
		fs := NewMemFS()
		for _, name := range []string{"a", "b", "c"} {
			f, _ := fs.Open(name)
			f.Append(bytes.Repeat([]byte(name), 100))
			f.Sync()
			f.Append(bytes.Repeat([]byte("x"), 100))
		}
		return fs
	}
	a, b := build(), build()
	a.Crash(7)
	b.Crash(7)
	for _, name := range []string{"a", "b", "c"} {
		da, _ := a.ReadFile(name)
		db, _ := b.ReadFile(name)
		if !bytes.Equal(da, db) {
			t.Fatalf("crash(7) nondeterministic on %s: %d vs %d bytes", name, len(da), len(db))
		}
	}
}

func TestFaultTornAppendBudget(t *testing.T) {
	fs := NewMemFS()
	in := NewInjector(fs, Schedule{Seed: 1, TornAppendAfter: 10})
	f, err := in.Open("log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte("12345678")); err != nil {
		t.Fatalf("append under budget: %v", err)
	}
	n, err := f.Append([]byte("abcdef"))
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn, got %v", err)
	}
	if n != 2 {
		t.Fatalf("want 2 bytes of torn prefix, got %d", n)
	}
	if _, err := f.Append([]byte("z")); !errors.Is(err, ErrTorn) {
		t.Fatalf("torn file not poisoned: %v", err)
	}
	data, _ := fs.ReadFile("log")
	if string(data) != "12345678ab" {
		t.Fatalf("on-disk bytes %q", data)
	}
}

func TestFaultSyncFailSticky(t *testing.T) {
	fs := NewMemFS()
	in := NewInjector(fs, Schedule{Seed: 1, SyncFailAt: 2})
	f, _ := in.Open("log")
	f.Append([]byte("one"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	f.Append([]byte("two"))
	if err := f.Sync(); !errors.Is(err, ErrSync) {
		t.Fatalf("sync 2: want ErrSync, got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrSync) {
		t.Fatalf("poisoned sync: want ErrSync, got %v", err)
	}
	// The inner Sync was never called for the failed attempts, so the
	// watermark still sits at "one": a crash drops some of "two".
	fs.Crash(3)
	data, _ := fs.ReadFile("log")
	if !bytes.HasPrefix(data, []byte("one")) || len(data) > 6 {
		t.Fatalf("post-crash bytes %q", data)
	}
}

func TestFaultDiskCap(t *testing.T) {
	fs := NewMemFS()
	in := NewInjector(fs, Schedule{Seed: 1, DiskCap: 8})
	f, _ := in.Open("log")
	if _, err := f.Append([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Append([]byte("56789"))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if n != 4 {
		t.Fatalf("want 4 bytes applied, got %d", n)
	}
}

func TestFaultFlipRead(t *testing.T) {
	fs := NewMemFS()
	in := NewInjector(fs, Schedule{Seed: 9, FlipReadAt: 2})
	f, _ := in.Open("blob")
	f.Append(make([]byte, 32))
	clean, _ := f.ReadAll()
	if !bytes.Equal(clean, make([]byte, 32)) {
		t.Fatalf("read 1 should be clean")
	}
	flipped, _ := f.ReadAll()
	diff := 0
	for i := range flipped {
		for b := 0; b < 8; b++ {
			if flipped[i]&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("want exactly one flipped bit, got %d", diff)
	}
	// The flip is read-side only: the stored bytes stay clean.
	again, _ := fs.ReadFile("blob")
	if !bytes.Equal(again, make([]byte, 32)) {
		t.Fatalf("flip corrupted the stored bytes")
	}
}

func TestFaultDirFSRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	fs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("delta.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Append([]byte("hello "))
	f.Append([]byte("world"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := f.Size(); got != 11 {
		t.Fatalf("size %d", got)
	}
	data, err := f.ReadAll()
	if err != nil || string(data) != "hello world" {
		t.Fatalf("readall %q %v", data, err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = fs.Open("delta.log")
	if err != nil {
		t.Fatal(err)
	}
	data, err = f.ReadAll()
	if err != nil || string(data) != "hello" {
		t.Fatalf("after truncate and reopen %q %v", data, err)
	}
	f.Close()
	if _, err := fs.Open("../escape"); err == nil {
		t.Fatal("path escape allowed")
	}
}
