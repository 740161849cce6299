package relal

import "testing"

// TestScanSourceWrapperProtectsSource: ScanSource returns a zero-copy
// wrapper over the source's table instead of writing its header — the
// base annotation and width live on the wrapper, so a source table that
// concurrent streams share is never mutated by a scan.
func TestScanSourceWrapperProtectsSource(t *testing.T) {
	tb := NewTable("t", Schema{{Name: "k", Type: Int}}, IntsV([]int64{1, 2}))
	e := &Exec{Parallelism: 1}
	scanned := e.ScanSource(NewTableSource(tb), []string{"k"}, nil)
	if scanned.Base != "t" || tb.Base == "t" {
		t.Fatalf("base annotation should live on the wrapper only: wrapper=%q source=%q",
			scanned.Base, tb.Base)
	}
	if scanned == tb || scanned.Cols[0] != tb.Cols[0] {
		t.Fatal("the scan must return a fresh header over the source's vectors")
	}
	if proj := e.Project(scanned, "k"); proj.NumRows() != 2 {
		t.Fatalf("projection has %d rows, want 2", proj.NumRows())
	}
}
