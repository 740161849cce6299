package rcfile

import (
	"encoding/binary"
	"errors"
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
		if srcBad.TotalStats().CorruptChunks != 1 {
			t.Fatalf("group %d: counter did not accumulate corruption", g)
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
	footerStart := len(data) - 8 - int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	bad := append([]byte(nil), data...)
	bad[footerStart+9+4] ^= 0x01
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], footerCRC(bad[4:12], bad[footerStart:len(bad)-4]))
	_, err = NewSourceFromBytes(bad, src.Schema, "t")
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "dictionary blob") {
		t.Fatalf("dict corruption error = %v, want ErrCorrupt naming the dictionary blob", err)
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
	footerStart := len(data) - 8 - int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	footerLenAt := len(data) - 8
	flips, wrong := 0, 0
	for off := 0; off < len(data); off++ {
		if off == 12 {
			off = footerStart // skip the chunk region: TestCorruptChunkDetected
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
