package rcfile

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"elephants/internal/relal"
)

// TestCorruptChunkDetected flips a byte in every chunk position in turn:
// each flip must surface as ErrCorrupt from the verifying read path —
// never as silently wrong rows.
func TestCorruptChunkDetected(t *testing.T) {
	src := sampleTable(200)
	data, err := NewWriter(64).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parse(data, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk region spans [12, firstGroupEnd...); flip one byte inside
	// each group's first chunk.
	for g, gr := range p.groups {
		bad := append([]byte(nil), data...)
		bad[gr.offset+int64(gr.compLens[0])/2] ^= 0x01
		srcBad, err := NewSourceFromBytes(bad, src.Schema, "t")
		if err != nil {
			t.Fatalf("group %d: footer parse should still pass: %v", g, err)
		}
		_, stats, err := srcBad.TryScan(nil, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("group %d: TryScan error = %v, want ErrCorrupt", g, err)
		}
		if stats.CorruptChunks != 1 {
			t.Fatalf("group %d: CorruptChunks = %d, want 1", g, stats.CorruptChunks)
		}
	}
}

// TestCorruptDictDetected flips a byte inside the footer's dictionary
// blob: parse itself must reject the file.
func TestCorruptDictDetected(t *testing.T) {
	vals := make([]string, 400)
	for i := range vals {
		vals[i] = []string{"AIR", "RAIL", "SHIP", "TRUCK"}[i%4]
	}
	src := relal.NewTable("t", relal.Schema{{Name: "m", Type: relal.Str}}, relal.EncodeDict(vals))
	data, err := NewWriter(128).Write(src)
	if err != nil {
		t.Fatal(err)
	}
	// The dictionary blob sits at the head of the footer; flip a byte in
	// its gzip stream (skip flag byte, compLen, and crc) and re-stamp the
	// trailer CRC, so it is the blob's own checksum that has to notice.
	bad := append([]byte(nil), data...)
	bad[footerStart(bad)+9+4] ^= 0x01
	restampFooter(bad)
	_, err = NewSourceFromBytes(bad, src.Schema, "t")
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "dictionary blob") {
		t.Fatalf("dict corruption error = %v, want ErrCorrupt naming the dictionary blob", err)
	}
}

// footerStart returns the offset of a file's footer, from the trailer.
func footerStart(data []byte) int {
	return len(data) - 8 - int(binary.LittleEndian.Uint32(data[len(data)-8:]))
}

// restampFooter rewrites the trailer CRC over the header counts and the
// footer, so an edit to either reaches the checks behind it.
func restampFooter(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], footerCRC(data[4:12], data[footerStart(data):len(data)-4]))
}

// withChunk returns a copy of a one-column, one-group file whose chunk
// is replaced by stored, under footer enc byte enc, with the chunk and
// trailer CRCs re-stamped: whatever reads it gets past every checksum.
func withChunk(data, stored []byte, enc byte) []byte {
	fs := footerStart(data)
	g := 1 // the column's dictionary flag, then the blob it flags
	if data[fs] == 1 {
		g += 8 + int(binary.LittleEndian.Uint32(data[fs+1:]))
	}
	// The group: rows, then the chunk's compLen, enc and crc.
	footer := append([]byte(nil), data[fs:len(data)-4]...)
	binary.LittleEndian.PutUint32(footer[g+4:], uint32(len(stored)))
	footer[g+8] = enc
	binary.LittleEndian.PutUint32(footer[g+9:], crc32.ChecksumIEEE(stored))
	out := append(append(append(append([]byte(nil), data[:12]...), stored...), footer...), 0, 0, 0, 0)
	restampFooter(out)
	return out
}

// TestCorruptEmptyGroupRejected: a file whose checksums all hold but
// whose footer gives a row group 0 rows — here with a gdict+rle chunk of
// 0 runs, which every run decoder accepts for 0 rows — must fail to
// parse. The writer never writes an empty group, and assembling one
// indexed the last run end of an empty run list.
func TestCorruptEmptyGroupRejected(t *testing.T) {
	vals := make([]string, 400)
	for i := range vals {
		vals[i] = []string{"AIR", "SHIP"}[i/200]
	}
	schema := relal.Schema{{Name: "m", Type: relal.Str}}
	data, err := NewWriter(400).Write(relal.NewTable("t", schema, relal.EncodeDict(vals)))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := parse(data, schema); err != nil || p.groups[0].encs[0] != encGDictRLE {
		t.Fatalf("fixture chunk is not gdict+rle (%v)", err)
	}
	bad := withChunk(data, appendGDictRLE(nil, nil, 0, 0, 0), encGDictRLE)
	// The footer holds the dictionary entry (flag, compLen, crc, blob),
	// then the one group's rows.
	fs := footerStart(bad)
	binary.LittleEndian.PutUint32(bad[fs+9+int(binary.LittleEndian.Uint32(bad[fs+1:])):], 0)
	restampFooter(bad)
	if _, _, err := ReadCols(bad, schema, "t", nil, nil); err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Fatalf("empty-group file read: error %v, want a group with no rows rejected", err)
	}
}

// TestCorruptRetiredMagic: a file the version 6 writer produced (every
// chunk gzip'd, no 0x80 flag in its enc bytes) fails to parse on its
// magic, before any of its checksums are consulted — so no reader
// decodes its gzip streams as stored payloads.
func TestCorruptRetiredMagic(t *testing.T) {
	// k Int {1, 2, 3}, v Float {0.5, 1.25, 2}, s Str {AIR, SHIP, AIR}
	// (dictionary-encoded), one row group.
	rcf6, err := hex.DecodeString("" +
		"5243463603000000010000001f8b08000000000000ff6264648002462640000000ffffad05ebd60c0000001f8b" +
		"08000000000000ff62008307f610fa0b94667000040000ffffd31ee28b180000001f8b08000000000000ff6264" +
		"0001460640000000ffffb6ee93b0080000000000012b000000429c5a8c1f8b08000000000000ff626260606066" +
		"606070f40c6261606008f6f00c00040000ffff24f1a7ff13000000030000001f0000000452846030010000000000" +
		"000003000000000000002300000000484d6439000000000000e03f00000000000000401e000000017c1d651b0000" +
		"0000010000000300000041495204000000534849508c000000957a4faa")
	if err != nil {
		t.Fatal(err)
	}
	schema := relal.Schema{{Name: "k", Type: relal.Int}, {Name: "v", Type: relal.Float}, {Name: "s", Type: relal.Str}}
	if _, err := parse(rcf6, schema); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("parse of an RCF6 file: error %v, want bad magic", err)
	}
	if _, err := NewSourceFromBytes(rcf6, schema, "t"); err == nil {
		t.Fatal("an RCF6 file opened as a source")
	}
}

// TestCorruptRetiredEncoding: enc byte 3 (numeric runs) is retired; a
// footer naming it fails to parse even when its CRC is re-stamped.
func TestCorruptRetiredEncoding(t *testing.T) {
	schema := relal.Schema{{Name: "x", Type: relal.Float}}
	data, err := NewWriter(0).Write(relal.NewTable("t", schema, relal.FloatsV([]float64{1, 1, 1, 2})))
	if err != nil {
		t.Fatal(err)
	}
	// Footer: the column's no-dictionary flag, the group's rows, then the
	// chunk's compLen and enc.
	bad := append([]byte(nil), data...)
	bad[footerStart(bad)+1+4+4] = 3
	restampFooter(bad)
	if _, err := parse(bad, schema); err == nil || !strings.Contains(err.Error(), "bad chunk encoding") {
		t.Fatalf("parse of an enc-3 chunk: error %v, want bad chunk encoding", err)
	}
}

// TestCorruptFooterDetected flips, one at a time, every bit no chunk or
// dictionary CRC covers — the header, the footer's group rows, chunk
// lengths, encodings, stored CRCs and zone maps, and the trailer — and
// runs a zone-pruned scan over each damaged file. Every flip must be an
// error before a row is served: ErrCorrupt from the trailer CRC, or the
// parse error a damaged magic or footer length earns. Without that CRC
// a flipped group count or zone map bound answers with rows missing.
func TestCorruptFooterDetected(t *testing.T) {
	schema := relal.Schema{{Name: "k", Type: relal.Int}}
	tab := relal.NewTable("t", schema, relal.IntsV(fill(400, func(i int) int64 { return int64(i) })))
	data, err := NewWriter(100).Write(tab)
	if err != nil {
		t.Fatal(err)
	}
	// answer is what a query for 250 <= k <= 260 returns from file: the
	// zone-pruned scan, then the row filter.
	answer := func(file []byte) ([]int64, error) {
		src, err := NewSourceFromBytes(file, schema, "t")
		if err != nil {
			return nil, err
		}
		got, _, err := src.TryScan(nil, relal.ZonePredicate{relal.IntBetween("k", 250, 260)})
		if err != nil {
			return nil, err
		}
		var keys []int64
		for _, k := range got.Cols[0].Ints {
			if k >= 250 && k <= 260 {
				keys = append(keys, k)
			}
		}
		return keys, nil
	}
	want, err := answer(data)
	if err != nil || len(want) != 11 {
		t.Fatalf("undamaged file answers %v, %v", want, err)
	}
	footerLenAt := len(data) - 8
	flips, wrong := 0, 0
	for off := 0; off < len(data); off++ {
		if off == 12 {
			off = footerStart(data) // skip the chunk region: TestCorruptChunkDetected
		}
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 1 << bit
			flips++
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("byte %d bit %d: panic: %v", off, bit, r)
					}
				}()
				got, err := answer(bad)
				parseOnly := off < 4 || (off >= footerLenAt && off < footerLenAt+4)
				switch {
				case err == nil && !slices.Equal(got, want):
					wrong++
					t.Errorf("byte %d bit %d: wrong rows %v, no error", off, bit, got)
				case err == nil:
					t.Errorf("byte %d bit %d: flip went unnoticed", off, bit)
				case !errors.Is(err, ErrCorrupt) && !parseOnly:
					t.Errorf("byte %d bit %d: error %v is not ErrCorrupt", off, bit, err)
				}
			}()
		}
	}
	t.Logf("%d single-bit flips over %d header, footer and trailer bytes: %d wrong answers", flips, flips/8, wrong)
}

// TestTryScanCleanMatchesScan pins that the error path is a pure
// addition: on clean bytes TryScan and ScanTable return identical rows.
func TestTryScanCleanMatchesScan(t *testing.T) {
	src := sampleTable(100)
	s, err := NewSource(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.TryScan([]string{"k", "s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 || len(got.Schema) != 2 {
		t.Fatalf("TryScan shape %dx%d", got.NumRows(), len(got.Schema))
	}
	// Round-trip through Data + NewSourceFromBytes too.
	s2, err := NewSourceFromBytes(s.Data(), src.Schema, "t")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := s2.ScanTable(nil, nil)
	if got2.NumRows() != 100 {
		t.Fatalf("reparsed scan rows = %d", got2.NumRows())
	}
}
