// Package rcfile implements the RCFile columnar storage format the
// paper's Hive tables used: rows are grouped into row groups, and each
// row group stores its columns contiguously, one chunk per column (the
// paper's configuration gzips every chunk).
//
// The format is functional — tables really round-trip through it — and
// it reports measured compression ratios, which the Hive cost model uses
// to size on-disk buckets at the paper's scale factors. The paper's key
// observation ("the RCFile format is not a very efficient storage
// layout... map tasks were CPU-bound at ~70 MB/s") appears in the cost
// model as a per-byte decompression CPU charge.
//
// Version 2 added a per-chunk min/max zone map in the file footer.
// ReadCols uses the footer to decompress only the requested columns, and
// only in row groups whose zone maps can satisfy a pushed predicate —
// the pruning the paper's Hive never did. Every read reports
// ScanStats{BytesRead, BytesSkipped, GroupsSkipped} so the cost models
// can charge (or discount) the decompression CPU per skipped byte.
//
// Version 3 added dictionary-encoded string chunks with group-local
// dictionaries. Version 4 replaces those with one file-global
// dictionary per Str column (stored once in the footer) and adds the
// lightweight encodings a columnar layout earns:
//
//	enc 0 plain      length-prefixed strings / fixed 8-byte numerics
//	enc 1 gdict      frame-of-reference packed global codes (Str)
//	enc 2 gdict+rle  run-length encoded global codes (Str)
//	enc 4 delta      frame-of-reference packed values (Int)
//	enc 5 decimal    frame-of-reference packed units of 10^-e (Float)
//
// Enc byte 3 (numeric runs) is retired: no TPC-H chunk ever chose it,
// so runs encode only dictionary codes, and a footer that names it
// fails to parse.
//
// The writer is adaptive per chunk: relal.PlanChunk models every
// applicable candidate's payload size and the writer lays down the
// smallest (ties go to plain — same bytes, simpler decode). On a column
// sorted by its dictionary codes the chunks collapse to runs; on
// sequential keys delta packs 8-byte integers into 1–4. Run-length
// encoding is a storage encoding only: a decoded gdict+rle chunk stays a
// run list in the chunk cache (charged that footprint) and expands where
// a column is assembled from its chunks, so the engine sees one entry
// per row; global-code chunks reassemble against the file dictionary
// with no per-group union merge. The in-memory scan model charges the
// same plan's bytes, which are these encodings' exact pre-compression
// payload lengths (TestChunkPlanMatchesFile).
//
// Version 5 adds a CRC32 per chunk (and per dictionary blob) to the
// footer, verified before decompression. Corruption surfaces as a typed
// ErrCorrupt from TryScan, so a reader detects a damaged file instead
// of serving wrong rows. Version 6 closes the gap that left: one more
// CRC32, in the trailer, covers the header counts and the whole footer
// (group rows, chunk lengths, encodings, stored CRCs, zone maps), so a
// flipped bit there is ErrCorrupt too.
//
// Version 7 gzips a chunk only where it pays: the writer deflates every
// payload but keeps the gzip stream only when it is less than half the
// payload, and flags that chunk in its footer enc byte; every other
// chunk is stored as its payload and a read decodes it straight from the
// file bytes, with no gzip stage at all. Float chunks whose values are
// all whole numbers of 10^-e units (prices, discounts, quantities) gain
// the decimal encoding, which packs those units like delta packs ints.
// A version 6 file fails to parse (bad magic).
//
// Since relal tables are themselves columnar, encoding and decoding
// move cells straight between the typed column vectors and the on-disk
// chunks — no row pivot, no boxed values.
package rcfile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"elephants/internal/relal"
)

// DefaultRowGroupRows is the row-group size in rows (RCFile defaults to
// 4 MB groups; for the 100–150 byte TPC-H rows this is comparable). It
// matches relal.DefaultScanGroupRows so in-memory scan modeling agrees
// with the on-disk layout.
const DefaultRowGroupRows = relal.DefaultScanGroupRows

// Chunk encodings (the footer's per-chunk enc byte; 3 is retired).
const (
	encPlain    = byte(0) // length-prefixed strings / fixed 8-byte numerics
	encGDict    = byte(1) // FOR-packed global codes (Str)
	encGDictRLE = byte(2) // run-length encoded global codes (Str)
	encDelta    = byte(4) // FOR-packed values (Int)
	encDecimal  = byte(5) // FOR-packed integer units of 10^-e (Float)
	numEncs     = 6

	// encDeflated is the footer enc byte's flag bit for a chunk stored as
	// a gzip stream of its payload; the other bits are the encoding.
	encDeflated = byte(0x80)
)

// EncNames names the chunk encodings, indexed by enc byte (tooling); the
// retired byte 3 has no name.
var EncNames = [numEncs]string{"plain", "gdict", "gdict+rle", "", "delta", "decimal"}

// Writer serializes a table into RCFile bytes.
type Writer struct {
	groupRows int
}

// NewWriter returns a writer with the given row-group size (0 = default).
func NewWriter(groupRows int) *Writer {
	if groupRows <= 0 {
		groupRows = DefaultRowGroupRows
	}
	return &Writer{groupRows: groupRows}
}

// file layout (version 7):
//
//	magic "RCF7"
//	uint32 numColumns
//	uint32 numGroups
//	per group: the stored column chunks, concatenated (chunk lengths
//	  live in the footer, so a reader can skip any chunk — or a whole
//	  group — with pointer arithmetic instead of decompression)
//	footer:
//	  global dictionary section, per column:
//	    uint8 flag (1 = dictionary follows)
//	    uint32 compLen, uint32 crc (CRC32 of the blob), then a gzip
//	    blob holding uint32 count and count length-prefixed values
//	    (sorted)
//	  per group:
//	    uint32 rows (at least 1)
//	    per column:
//	      uint32 compLen (stored bytes)
//	      uint8  enc: the encoding, | 0x80 when the stored bytes are a
//	             gzip stream of the payload rather than the payload
//	      uint32 crc (CRC32 of the stored chunk bytes)
//	      zone map (typed min/max; enc 1/2 prepend min/max global codes)
//	trailer:
//	  uint32 footerLen (bytes of footer, ending where the trailer starts)
//	  uint32 crc (CRC32 of numColumns, numGroups, footer and footerLen)
//
// Every chunk and dictionary blob carries a CRC32 of its stored bytes,
// verified before decompression or decoding, and the trailer CRC is
// verified before any footer field is used — a flipped bit anywhere in
// the file surfaces as ErrCorrupt (or a parse error) instead of garbage
// rows.
//
// Chunk payloads:
//
//	plain      Str: rows × (u32 len + bytes); numeric: rows × 8 bytes
//	gdict      u8 width, u32 codeBase, rows × width (code − codeBase)
//	gdict+rle  u8 width, u32 codeBase, u32 runs,
//	           runs × (width bytes code − codeBase, u32 runLen)
//	delta      u8 width, 8-byte base (chunk min), rows × width
//	           (value − base, little-endian)
//	decimal    u8 width, u8 e (0–4), 8-byte base (min k), rows × width
//	           (k − base, little-endian); the value is float64(k)/10^e
//
// width ∈ {0, 1, 2, 4} (relal.FORWidth); width 0 means every row equals
// the base. A payload is stored deflated (enc bit 0x80) exactly when its
// gzip stream is less than half its length: a format constant, so equal
// tables write equal bytes.

var magic = []byte("RCF7")

// ErrCorrupt is the typed corruption error: a chunk, dictionary blob or
// footer whose stored CRC32 does not match its bytes. Callers that can
// degrade test with errors.Is and rebuild the file; the panic-on-error
// Scan path still panics, wrapping this.
var ErrCorrupt = errors.New("rcfile: corrupt chunk")

// Write encodes t.
func (w *Writer) Write(t *relal.Table) ([]byte, error) {
	d := t.Compacted() // dense vectors; no-op unless t is a view
	n := d.NumRows()
	numGroups := (n + w.groupRows - 1) / w.groupRows
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.Schema)))
	out = binary.LittleEndian.AppendUint32(out, uint32(numGroups))
	var footer []byte
	for _, v := range d.Cols {
		if !v.IsDict() {
			footer = append(footer, 0)
			continue
		}
		blob, err := deflate(appendDict(nil, v.DictVals))
		if err != nil {
			return nil, err
		}
		footer = append(footer, 1)
		footer = binary.LittleEndian.AppendUint32(footer, uint32(len(blob)))
		footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(blob))
		footer = append(footer, blob...)
	}
	for g := 0; g < numGroups; g++ {
		lo := g * w.groupRows
		hi := min(lo+w.groupRows, n)
		footer = binary.LittleEndian.AppendUint32(footer, uint32(hi-lo))
		for _, v := range d.Cols {
			plan := relal.PlanChunk(v, lo, hi)
			start := len(out)
			var enc byte
			var err error
			if out, enc, err = appendChunk(out, v, lo, hi, plan); err != nil {
				return nil, err
			}
			chunk := out[start:]
			footer = binary.LittleEndian.AppendUint32(footer, uint32(len(chunk)))
			footer = append(footer, enc)
			footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(chunk))
			footer = appendZone(footer, plan.Zone, plan.Enc)
		}
	}
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	return binary.LittleEndian.AppendUint32(out, footerCRC(out[4:12], out[len(out)-len(footer)-4:])), nil
}

// appendChunk appends rows [lo, hi) of v in the encoding relal.PlanChunk
// chose for them — the payload is laid down once, then deflated, and the
// gzip stream replaces it only when it is less than half as long. It
// returns the grown buffer and the chunk's footer enc byte. The plan's
// zone map, width, run count, exponent and base are what the layouts
// store.
func appendChunk(b []byte, v *relal.Vector, lo, hi int, plan relal.ChunkPlan) ([]byte, byte, error) {
	start := len(b)
	switch plan.Enc {
	case encGDict:
		b = appendGDict(b, v.Dict[lo:hi], plan.Zone.CodeMin, plan.Width)
	case encGDictRLE:
		b = appendGDictRLE(b, v.Dict[lo:hi], plan.Zone.CodeMin, plan.Width, plan.Runs)
	case encDelta:
		b = appendDelta(b, v.Ints[lo:hi], plan.Zone.IntMin, plan.Width)
	case encDecimal:
		b = appendDecimal(b, v.Floats[lo:hi], plan.Exp, plan.Base, plan.Width)
	default:
		var err error
		if b, err = appendPlain(b, v, lo, hi); err != nil {
			return nil, 0, err
		}
	}
	gz, err := deflate(b[start:])
	if err != nil {
		return nil, 0, err
	}
	if 2*len(gz) < len(b)-start {
		return append(b[:start], gz...), plan.Enc | encDeflated, nil
	}
	return b, plan.Enc, nil
}

// gzipWriters holds *gzip.Writer values for deflate to Reset: a fresh
// one allocates about a megabyte of compressor state, and the writer
// deflates every chunk it lays down.
var gzipWriters sync.Pool

// deflate returns the gzip stream of payload.
func deflate(payload []byte) ([]byte, error) {
	var out bytes.Buffer
	gz, _ := gzipWriters.Get().(*gzip.Writer)
	if gz == nil {
		gz = gzip.NewWriter(&out)
	} else {
		gz.Reset(&out)
	}
	defer gzipWriters.Put(gz)
	if _, err := gz.Write(payload); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// appendDict appends a dictionary blob's payload: the value count, then
// each value length-prefixed.
func appendDict(b []byte, vals []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for _, s := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// appendZone appends one zone map in its typed encoding. Global-code
// chunks (enc 1/2) prepend the chunk's min/max codes — absolute indices
// into the file dictionary — so code-space tooling and the dense
// aggregation planner can size code ranges without decompression;
// pruning consumes only the strings.
func appendZone(b []byte, z relal.ZoneMap, enc byte) []byte {
	switch z.Kind {
	case relal.Int:
		b = binary.LittleEndian.AppendUint64(b, uint64(z.IntMin))
		return binary.LittleEndian.AppendUint64(b, uint64(z.IntMax))
	case relal.Float:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.FloatMin))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(z.FloatMax))
	}
	if enc == encGDict || enc == encGDictRLE {
		b = binary.LittleEndian.AppendUint32(b, z.CodeMin)
		b = binary.LittleEndian.AppendUint32(b, z.CodeMax)
	}
	for _, s := range []string{z.StrMin, z.StrMax} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// appendPlain appends one plain column's cells in rows [lo, hi)
// straight from the typed vector.
func appendPlain(b []byte, v *relal.Vector, lo, hi int) ([]byte, error) {
	switch v.Kind {
	case relal.Int:
		for _, x := range v.Ints[lo:hi] {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	case relal.Float:
		for _, f := range v.Floats[lo:hi] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	case relal.Str:
		for p := lo; p < hi; p++ {
			s := v.StrAt(int32(p)) // decodes dict vectors on the way out
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
	default:
		return nil, fmt.Errorf("rcfile: unknown type %d", v.Kind)
	}
	return b, nil
}

// appendPacked appends the low width bytes of x, little-endian (width 0
// appends nothing).
func appendPacked(b []byte, x uint64, width int) []byte {
	switch width {
	case 1:
		return append(b, byte(x))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(x))
	case 4:
		return binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// appendGDict packs global codes frame-of-reference: the chunk's minimum
// code is the base, every row stores code − base in width bytes.
func appendGDict(b []byte, codes []uint32, base uint32, width int) []byte {
	b = append(b, byte(width))
	b = binary.LittleEndian.AppendUint32(b, base)
	for _, c := range codes {
		b = appendPacked(b, uint64(c-base), width)
	}
	return b
}

// appendGDictRLE writes global codes as (code − base, runLen) runs.
func appendGDictRLE(b []byte, codes []uint32, base uint32, width, runs int) []byte {
	b = append(b, byte(width))
	b = binary.LittleEndian.AppendUint32(b, base)
	b = binary.LittleEndian.AppendUint32(b, uint32(runs))
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		b = appendPacked(b, uint64(codes[i]-base), width)
		b = binary.LittleEndian.AppendUint32(b, uint32(j-i))
		i = j
	}
	return b
}

// appendDelta packs ints frame-of-reference: the chunk minimum is the
// 8-byte base, every row stores value − base in width bytes.
func appendDelta(b []byte, xs []int64, base int64, width int) []byte {
	b = append(b, byte(width))
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	for _, x := range xs {
		b = appendPacked(b, uint64(x)-uint64(base), width)
	}
	return b
}

// appendDecimal packs floats that are whole numbers of 10^-e units the
// way appendDelta packs ints: every row stores k − base, k = x·10^e
// rounded, which relal.PlanChunk has checked is exact.
func appendDecimal(b []byte, xs []float64, e int, base int64, width int) []byte {
	b = append(b, byte(width), byte(e))
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	p := math.Pow10(e)
	for _, x := range xs {
		b = appendPacked(b, uint64(int64(math.Round(x*p))-base), width)
	}
	return b
}

// group is the decoded footer entry for one row group.
type group struct {
	rows     int
	offset   int64 // byte offset of the group's first chunk
	compLens []uint32
	encs     []byte   // encoding, the deflated flag cleared
	deflated []bool   // stored bytes are a gzip stream of the payload
	crcs     []uint32 // CRC32 of each stored chunk
	zones    []relal.ZoneMap
}

// parsed is the decoded file structure (footer only — chunk bytes stay
// untouched until a read asks for them).
type parsed struct {
	dicts  [][]string // per column; nil = no global dictionary
	groups []group
}

// validEnc reports whether enc is legal for a column of the given type
// (dict-code encodings additionally require the global dictionary).
func validEnc(enc byte, kind relal.Type, hasDict bool) bool {
	switch enc {
	case encPlain:
		return true
	case encGDict, encGDictRLE:
		return kind == relal.Str && hasDict
	case encDelta:
		return kind == relal.Int
	case encDecimal:
		return kind == relal.Float
	}
	return false
}

// footerCRC is the trailer checksum: the header's column and group
// counts, then the footer with its length field.
func footerCRC(counts, footer []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(counts), crc32.IEEETable, footer)
}

// parse validates the header against the schema, verifies the trailer
// CRC and decodes the footer.
func parse(data []byte, schema relal.Schema) (*parsed, error) {
	if len(data) < len(magic)+16 || !bytes.Equal(data[:4], magic) {
		return nil, fmt.Errorf("rcfile: bad magic")
	}
	footerLen := binary.LittleEndian.Uint32(data[len(data)-8:])
	footerStart := len(data) - 8 - int(footerLen)
	if footerStart < 12 {
		return nil, fmt.Errorf("rcfile: truncated footer")
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := footerCRC(data[4:12], data[footerStart:len(data)-4]); got != want {
		return nil, fmt.Errorf("%w: footer (crc %08x, want %08x)", ErrCorrupt, got, want)
	}
	numCols := binary.LittleEndian.Uint32(data[4:])
	numGroups := binary.LittleEndian.Uint32(data[8:])
	if int(numCols) != len(schema) {
		return nil, fmt.Errorf("rcfile: file has %d columns, schema has %d", numCols, len(schema))
	}
	f := data[footerStart : len(data)-8]
	pos := 0
	need := func(n int) error {
		if pos+n > len(f) {
			return fmt.Errorf("rcfile: truncated footer")
		}
		return nil
	}
	readStr := func() (string, error) {
		if err := need(4); err != nil {
			return "", err
		}
		sl := int(binary.LittleEndian.Uint32(f[pos:]))
		pos += 4
		if err := need(sl); err != nil {
			return "", err
		}
		s := string(f[pos : pos+sl])
		pos += sl
		return s, nil
	}
	p := &parsed{dicts: make([][]string, numCols)}
	for c := uint32(0); c < numCols; c++ {
		if err := need(1); err != nil {
			return nil, err
		}
		flag := f[pos]
		pos++
		if flag == 0 {
			continue
		}
		if schema[c].Type != relal.Str {
			return nil, fmt.Errorf("rcfile: dictionary on non-Str column %q", schema[c].Name)
		}
		if err := need(8); err != nil {
			return nil, err
		}
		compLen := int(binary.LittleEndian.Uint32(f[pos:]))
		dictCRC := binary.LittleEndian.Uint32(f[pos+4:])
		pos += 8
		if err := need(compLen); err != nil {
			return nil, err
		}
		blob := f[pos : pos+compLen]
		pos += compLen
		if got := crc32.ChecksumIEEE(blob); got != dictCRC {
			return nil, fmt.Errorf("%w: dictionary blob of column %q (crc %08x, want %08x)",
				ErrCorrupt, schema[c].Name, got, dictCRC)
		}
		vals, err := readDict(blob)
		if err != nil {
			return nil, err
		}
		p.dicts[c] = vals
	}
	offset := int64(12)
	for g := uint32(0); g < numGroups; g++ {
		if err := need(4); err != nil {
			return nil, err
		}
		gr := group{
			rows:     int(binary.LittleEndian.Uint32(f[pos:])),
			offset:   offset,
			compLens: make([]uint32, numCols),
			encs:     make([]byte, numCols),
			deflated: make([]bool, numCols),
			crcs:     make([]uint32, numCols),
			zones:    make([]relal.ZoneMap, numCols),
		}
		pos += 4
		if gr.rows == 0 {
			// The writer never writes an empty group, and every chunk
			// decoder assumes at least one row.
			return nil, fmt.Errorf("rcfile: group %d has no rows", g)
		}
		for c := uint32(0); c < numCols; c++ {
			if err := need(9); err != nil {
				return nil, err
			}
			gr.compLens[c] = binary.LittleEndian.Uint32(f[pos:])
			gr.encs[c] = f[pos+4] &^ encDeflated
			gr.deflated[c] = f[pos+4]&encDeflated != 0
			gr.crcs[c] = binary.LittleEndian.Uint32(f[pos+5:])
			pos += 9
			if !validEnc(gr.encs[c], schema[c].Type, p.dicts[c] != nil) {
				return nil, fmt.Errorf("rcfile: bad chunk encoding %d on column %q", gr.encs[c], schema[c].Name)
			}
			z := relal.ZoneMap{Kind: schema[c].Type}
			switch schema[c].Type {
			case relal.Int:
				if err := need(16); err != nil {
					return nil, err
				}
				z.IntMin = int64(binary.LittleEndian.Uint64(f[pos:]))
				z.IntMax = int64(binary.LittleEndian.Uint64(f[pos+8:]))
				pos += 16
			case relal.Float:
				if err := need(16); err != nil {
					return nil, err
				}
				z.FloatMin = math.Float64frombits(binary.LittleEndian.Uint64(f[pos:]))
				z.FloatMax = math.Float64frombits(binary.LittleEndian.Uint64(f[pos+8:]))
				pos += 16
			default:
				if gr.encs[c] == encGDict || gr.encs[c] == encGDictRLE {
					if err := need(8); err != nil {
						return nil, err
					}
					z.CodeMin = binary.LittleEndian.Uint32(f[pos:])
					z.CodeMax = binary.LittleEndian.Uint32(f[pos+4:])
					z.HasCodes = true
					pos += 8
				}
				var err error
				if z.StrMin, err = readStr(); err != nil {
					return nil, err
				}
				if z.StrMax, err = readStr(); err != nil {
					return nil, err
				}
			}
			gr.zones[c] = z
			offset += int64(gr.compLens[c])
		}
		p.groups = append(p.groups, gr)
	}
	if int(offset) > footerStart {
		return nil, fmt.Errorf("rcfile: chunk data overruns footer")
	}
	return p, nil
}

// readDict inflates and decodes one dictionary blob.
func readDict(blob []byte) ([]string, error) {
	buf, err := inflate(blob)
	if err != nil {
		return nil, fmt.Errorf("rcfile: dictionary: %w", err)
	}
	defer inflateBufs.Put(buf)
	raw := *buf
	if len(raw) < 4 {
		return nil, fmt.Errorf("rcfile: truncated dictionary")
	}
	count := int(binary.LittleEndian.Uint32(raw))
	if count < 0 || count > len(raw) {
		return nil, fmt.Errorf("rcfile: implausible dictionary size %d", count)
	}
	vals := make([]string, 0, count)
	bp := 4
	for i := 0; i < count; i++ {
		if bp+4 > len(raw) {
			return nil, fmt.Errorf("rcfile: truncated dictionary")
		}
		sl := int(binary.LittleEndian.Uint32(raw[bp:]))
		bp += 4
		if sl < 0 || bp+sl > len(raw) {
			return nil, fmt.Errorf("rcfile: truncated dictionary value")
		}
		vals = append(vals, string(raw[bp:bp+sl]))
		bp += sl
	}
	return vals, nil
}

// verifiedChunk returns a chunk's stored bytes after checking them
// against its CRC32.
func verifiedChunk(data []byte, chunkOff int64, compLen, want uint32) ([]byte, error) {
	if chunkOff+int64(compLen) > int64(len(data)) {
		return nil, fmt.Errorf("%w: truncated chunk", ErrCorrupt)
	}
	chunk := data[chunkOff : chunkOff+int64(compLen)]
	if got := crc32.ChecksumIEEE(chunk); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorrupt, got, want)
	}
	return chunk, nil
}

// maxInflateRatio is DEFLATE's largest expansion, output bytes per
// input byte: the most a gzip stream's ISIZE trailer can make inflate
// allocate.
const maxInflateRatio = 1032

var (
	gzipReaders sync.Pool // *gzip.Reader, reused through Reset
	inflateBufs sync.Pool // *[]byte, the payloads inflate returns
)

// inflate decompresses one gzip stream into a pooled buffer sized from
// the stream's ISIZE trailer, capped at maxInflateRatio × its length,
// and requires the stream to end there, so gzip's own CRC-32 and size
// check runs. The caller hands the buffer back to inflateBufs once
// nothing reads it.
func inflate(comp []byte) (*[]byte, error) {
	if len(comp) < 18 { // 10-byte header, 8-byte trailer
		return nil, fmt.Errorf("rcfile: truncated gzip stream")
	}
	size := min(int64(binary.LittleEndian.Uint32(comp[len(comp)-4:])), maxInflateRatio*int64(len(comp)))
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	if zr == nil {
		zr = new(gzip.Reader)
	}
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(comp)); err != nil {
		return nil, err
	}
	buf, _ := inflateBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if int64(cap(*buf)) <= size {
		*buf = make([]byte, size+1)
	}
	// One byte past the size: reading it means the stream is longer
	// than its trailer says.
	n, err := io.ReadFull(zr, (*buf)[:size+1])
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // the stream ended and its trailer checked out
		*buf = (*buf)[:n]
		return buf, nil
	case nil:
		err = fmt.Errorf("rcfile: gzip stream inflates past %d bytes", size)
	}
	inflateBufs.Put(buf)
	return nil, err
}

// strPart is one row group's decoded slice of a Str column: global
// codes (flat, or run-encoded when ends is set) or raw strings.
type strPart struct {
	codes []uint32
	ends  []int32 // chunk-local exclusive run ends; nil = one code per row
	raw   []string
}

// ReadCols decodes the requested columns (nil = all, otherwise the
// result schema is the requested names in order), skipping row groups
// whose zone maps cannot satisfy pred. Only surviving groups'
// requested chunks are decoded; everything else is skipped with
// pointer arithmetic and accounted in the stats as stored bytes.
// Run-length code chunks expand to one code per row as the column is
// assembled; global-code chunks reassemble against the file dictionary
// with no merging.
func ReadCols(data []byte, schema relal.Schema, name string, cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats, error) {
	p, err := parse(data, schema)
	if err != nil {
		return nil, relal.ScanStats{}, err
	}
	return readColsCached(data, p, schema, name, cols, pred, nil, 0)
}

// readColsCached is the parse-once read path, with an optional shared
// chunk cache: when cache is non-nil, each surviving chunk is looked up
// under (file, group, column) before decoding, and fresh decodes are
// inserted. Hits keep counting toward BytesRead (the scan logically
// decoded those bytes — the skipped fraction the cost models replay is
// cache-invariant) and additionally toward BytesFromCache/CacheHits.
func readColsCached(data []byte, p *parsed, schema relal.Schema, name string, cols []string, pred relal.ZonePredicate, cache *ChunkCache, file uint64) (*relal.Table, relal.ScanStats, error) {
	var stats relal.ScanStats
	// Resolve the projection: out column i reads file column colIdx[i].
	var colIdx []int
	outSchema := schema
	if len(cols) > 0 {
		outSchema = make(relal.Schema, len(cols))
		colIdx = make([]int, len(cols))
		for i, cname := range cols {
			found := -1
			for ci, c := range schema {
				if c.Name == cname {
					found = ci
					break
				}
			}
			if found < 0 {
				return nil, stats, fmt.Errorf("rcfile: no column %q in schema", cname)
			}
			colIdx[i] = found
			outSchema[i] = schema[found]
		}
	} else {
		colIdx = make([]int, len(schema))
		for i := range schema {
			colIdx[i] = i
		}
	}
	wanted := make([]bool, len(schema))
	for _, ci := range colIdx {
		wanted[ci] = true
	}

	t := relal.NewTable(name, outSchema)
	// Every column accumulates its surviving groups' decoded chunks and
	// assembles once at the end.
	parts := make([][]chunkData, len(colIdx))
	for g, gr := range p.groups {
		keep := pred.MayMatch(func(col string) (relal.ZoneMap, bool) {
			for ci, c := range schema {
				if c.Name == col {
					return gr.zones[ci], true
				}
			}
			return relal.ZoneMap{}, false
		})
		if !keep {
			stats.GroupsSkipped++
			for _, cl := range gr.compLens {
				stats.BytesSkipped += int64(cl)
			}
			continue
		}
		stats.GroupsRead++
		for ci, cl := range gr.compLens {
			if wanted[ci] {
				stats.BytesRead += int64(cl)
			} else {
				stats.BytesSkipped += int64(cl)
			}
		}
		for out, ci := range colIdx {
			var cd chunkData
			hit := false
			key := chunkKey{file: file, group: g, col: ci}
			if cache != nil {
				cd, hit = cache.get(key)
			}
			if hit {
				stats.BytesFromCache += int64(gr.compLens[ci])
				stats.CacheHits++
			} else {
				if cache != nil {
					stats.CacheMisses++
				}
				off := gr.offset
				for k := 0; k < ci; k++ {
					off += int64(gr.compLens[k])
				}
				// Verify the chunk's CRC before trusting its bytes. Cache
				// hits skip this: the entry was verified when first
				// decoded, and cache keys are content-hashed, so corrupt
				// bytes can never ride in on a stale hit.
				stored, err := verifiedChunk(data, off, gr.compLens[ci], gr.crcs[ci])
				if err != nil {
					stats.CorruptChunks++
					return nil, stats, fmt.Errorf("%s group %d column %q: %w", name, g, schema[ci].Name, err)
				}
				if cd, err = loadChunk(stored, gr.deflated[ci], schema[ci].Type, gr.encs[ci], gr.rows, p.dicts[ci]); err != nil {
					return nil, stats, err
				}
				if cache != nil {
					cache.put(key, cd)
				}
			}
			parts[out] = append(parts[out], cd)
		}
	}
	for out, ci := range colIdx {
		if len(parts[out]) > 0 {
			t.Cols[out] = assembleCol(schema[ci].Type, parts[out], p.dicts[ci])
		}
	}
	return t, stats, nil
}

// loadChunk decodes one verified chunk: straight from its stored bytes,
// or from a pooled buffer they inflate into when the writer kept them
// deflated. decodeChunk copies every cell out, so neither the file nor a
// reused buffer is aliased by what a cache holds.
func loadChunk(stored []byte, deflated bool, kind relal.Type, enc byte, rows int, dict []string) (chunkData, error) {
	if !deflated {
		return decodeChunk(stored, kind, enc, rows, dict)
	}
	buf, err := inflate(stored)
	if err != nil {
		return chunkData{}, err
	}
	defer inflateBufs.Put(buf)
	return decodeChunk(*buf, kind, enc, rows, dict)
}

// decodeChunk decodes one chunk payload into its standalone form — fresh
// slices, not appends onto a caller vector — so the result is safe to
// share through the chunk cache. Run-length code chunks stay run lists;
// global-code chunks stay codes (the dictionary lives in the parsed
// footer, not the cache entry).
func decodeChunk(raw []byte, kind relal.Type, enc byte, rows int, dict []string) (chunkData, error) {
	switch enc {
	case encPlain:
		if kind == relal.Str {
			v := relal.NewVector(relal.Str, rows)
			if err := readPlainChunk(raw, v, rows); err != nil {
				return chunkData{}, err
			}
			return chunkData{str: strPart{raw: v.Strs}}, nil
		}
		v := relal.NewVector(kind, rows)
		if err := readPlainChunk(raw, v, rows); err != nil {
			return chunkData{}, err
		}
		return chunkData{ints: v.Ints, floats: v.Floats}, nil
	case encGDict:
		codes, err := readGDictChunk(raw, rows, len(dict))
		if err != nil {
			return chunkData{}, err
		}
		return chunkData{str: strPart{codes: codes}}, nil
	case encGDictRLE:
		codes, ends, err := readGDictRLEChunk(raw, rows, len(dict))
		if err != nil {
			return chunkData{}, err
		}
		return chunkData{str: strPart{codes: codes, ends: ends}}, nil
	case encDelta:
		ints, err := readDeltaChunk(raw, rows)
		if err != nil {
			return chunkData{}, err
		}
		return chunkData{ints: ints}, nil
	case encDecimal:
		floats, err := readDecimalChunk(raw, rows)
		if err != nil {
			return chunkData{}, err
		}
		return chunkData{floats: floats}, nil
	}
	return chunkData{}, fmt.Errorf("rcfile: unknown chunk encoding %d", enc)
}

// packedWidth validates a packed payload's width byte.
func packedWidth(b byte) (int, error) {
	switch b {
	case 0, 1, 2, 4:
		return int(b), nil
	}
	return 0, fmt.Errorf("rcfile: bad packed width %d", b)
}

// unpack sets out[i] to base plus the i-th width-byte little-endian
// offset in packed, for width 0, 1, 2 or 4; packed holds at least
// len(out)·width bytes. Every FOR-packed layout reads its cells through
// it, one loop per width.
func unpack[T uint32 | int64 | float64](out []T, packed []byte, width int, base T) {
	switch width {
	case 0:
		for i := range out {
			out[i] = base
		}
	case 1:
		for i, x := range packed[:len(out)] {
			out[i] = base + T(x)
		}
	case 2:
		for i := range out {
			out[i] = base + T(binary.LittleEndian.Uint16(packed[2*i:]))
		}
	case 4:
		for i := range out {
			out[i] = base + T(binary.LittleEndian.Uint32(packed[4*i:]))
		}
	}
}

// readGDictChunk decodes FOR-packed global codes.
func readGDictChunk(raw []byte, rows, dictLen int) ([]uint32, error) {
	if len(raw) < 5 {
		return nil, fmt.Errorf("rcfile: truncated gdict chunk")
	}
	width, err := packedWidth(raw[0])
	if err != nil {
		return nil, err
	}
	base := binary.LittleEndian.Uint32(raw[1:])
	if 5+rows*width > len(raw) {
		return nil, fmt.Errorf("rcfile: truncated codes")
	}
	codes := make([]uint32, rows)
	unpack(codes, raw[5:], width, base)
	// One range check per chunk: a base + offset that wrapped lands
	// below the base.
	if lo, hi := slices.Min(codes), slices.Max(codes); lo < base || uint64(hi) >= uint64(dictLen) {
		return nil, fmt.Errorf("rcfile: codes [%d, %d] from base %d outside dictionary range %d", lo, hi, base, dictLen)
	}
	return codes, nil
}

// readGDictRLEChunk decodes run-length encoded global codes into a
// chunk-local run list.
func readGDictRLEChunk(raw []byte, rows, dictLen int) ([]uint32, []int32, error) {
	if len(raw) < 9 {
		return nil, nil, fmt.Errorf("rcfile: truncated gdict+rle chunk")
	}
	width, err := packedWidth(raw[0])
	if err != nil {
		return nil, nil, err
	}
	base := binary.LittleEndian.Uint32(raw[1:])
	runs := int(binary.LittleEndian.Uint32(raw[5:]))
	if runs < 0 || runs > rows {
		return nil, nil, fmt.Errorf("rcfile: implausible run count %d for %d rows", runs, rows)
	}
	pos := 9
	codes := make([]uint32, runs)
	ends := make([]int32, runs)
	total := 0
	for k := 0; k < runs; k++ {
		if pos+width+4 > len(raw) {
			return nil, nil, fmt.Errorf("rcfile: truncated run")
		}
		unpack(codes[k:k+1], raw[pos:], width, base)
		if c := codes[k]; c < base || uint64(c) >= uint64(dictLen) {
			return nil, nil, fmt.Errorf("rcfile: code %d from base %d outside dictionary range %d", c, base, dictLen)
		}
		pos += width
		rl := int(binary.LittleEndian.Uint32(raw[pos:]))
		pos += 4
		if rl <= 0 || total+rl > rows {
			return nil, nil, fmt.Errorf("rcfile: bad run length %d", rl)
		}
		total += rl
		ends[k] = int32(total)
	}
	if total != rows {
		return nil, nil, fmt.Errorf("rcfile: runs cover %d of %d rows", total, rows)
	}
	return codes, ends, nil
}

// readDeltaChunk decodes FOR-packed ints.
func readDeltaChunk(raw []byte, rows int) ([]int64, error) {
	if len(raw) < 9 {
		return nil, fmt.Errorf("rcfile: truncated delta chunk")
	}
	width, err := packedWidth(raw[0])
	if err != nil {
		return nil, err
	}
	if 9+rows*width > len(raw) {
		return nil, fmt.Errorf("rcfile: truncated deltas")
	}
	out := make([]int64, rows)
	unpack(out, raw[9:], width, int64(binary.LittleEndian.Uint64(raw[1:])))
	return out, nil
}

// readDecimalChunk decodes FOR-packed decimal units: each value is
// float64(k)/10^e.
func readDecimalChunk(raw []byte, rows int) ([]float64, error) {
	if len(raw) < 10 {
		return nil, fmt.Errorf("rcfile: truncated decimal chunk")
	}
	width, err := packedWidth(raw[0])
	if err != nil {
		return nil, err
	}
	e := int(raw[1])
	if e > relal.MaxDecimalExp {
		return nil, fmt.Errorf("rcfile: bad decimal exponent %d", e)
	}
	if 10+rows*width > len(raw) {
		return nil, fmt.Errorf("rcfile: truncated decimal units")
	}
	// The writer keeps every k within ±2^53, where float64(base) plus an
	// offset of at most 32 bits is k exactly; the division is then the
	// float64(k)/10^e relal.PlanChunk checked against every value.
	out := make([]float64, rows)
	unpack(out, raw[10:], width, float64(int64(binary.LittleEndian.Uint64(raw[2:]))))
	p := math.Pow10(e)
	for i := range out {
		out[i] /= p
	}
	return out, nil
}

// assembleCol merges one column's decoded chunks, in group order, into
// a single vector with one entry per row: numeric chunks concatenate;
// Str chunks go through assembleStrCol.
func assembleCol(kind relal.Type, parts []chunkData, dict []string) *relal.Vector {
	if kind == relal.Str {
		sps := make([]strPart, len(parts))
		for i, p := range parts {
			sps[i] = p.str
		}
		return assembleStrCol(sps, dict)
	}
	total := 0
	for _, p := range parts {
		total += len(p.ints) + len(p.floats)
	}
	if kind == relal.Int {
		out := make([]int64, 0, total)
		for _, p := range parts {
			out = append(out, p.ints...)
		}
		return relal.IntsV(out)
	}
	out := make([]float64, 0, total)
	for _, p := range parts {
		out = append(out, p.floats...)
	}
	return relal.FloatsV(out)
}

// assembleStrCol merges a Str column's decoded chunks. All code-based
// chunks share the file-global dictionary, so codes concatenate with no
// union merge: gdict+rle chunks expand to one code per row, and any raw chunk
// degrades the whole column to raw strings in group order.
func assembleStrCol(parts []strPart, dict []string) *relal.Vector {
	anyRaw := false
	total := 0
	for _, p := range parts {
		if p.raw != nil {
			anyRaw = true
			total += len(p.raw)
			continue
		}
		if p.ends == nil {
			total += len(p.codes)
		} else {
			total += int(p.ends[len(p.ends)-1])
		}
	}
	if anyRaw {
		out := make([]string, 0, total)
		for _, p := range parts {
			switch {
			case p.raw != nil:
				out = append(out, p.raw...)
			case p.ends == nil:
				for _, c := range p.codes {
					out = append(out, dict[c])
				}
			default:
				prev := int32(0)
				for k, e := range p.ends {
					for ; prev < e; prev++ {
						out = append(out, dict[p.codes[k]])
					}
				}
			}
		}
		return relal.StrsV(out)
	}
	codes := make([]uint32, 0, total)
	for _, p := range parts {
		if p.ends == nil {
			codes = append(codes, p.codes...)
			continue
		}
		prev := int32(0)
		for k, e := range p.ends {
			for ; prev < e; prev++ {
				codes = append(codes, p.codes[k])
			}
		}
	}
	return relal.DictV(codes, dict)
}

// ColEncStats is one column's per-encoding chunk census: how many
// chunks the adaptive writer settled on each encoding, how many of
// those it stored deflated, and their stored bytes. Indexed by enc byte
// (see EncNames).
type ColEncStats struct {
	Chunks    [numEncs]int
	Deflated  [numEncs]int
	CompBytes [numEncs]int64
}

// readPlainChunk decodes one plain column chunk of the given row count,
// appending onto the typed vector.
func readPlainChunk(raw []byte, v *relal.Vector, rows int) error {
	pos := 0
	switch v.Kind {
	case relal.Int:
		if len(raw) < 8*rows {
			return fmt.Errorf("rcfile: truncated int column")
		}
		for i := 0; i < rows; i++ {
			v.Ints = append(v.Ints, int64(binary.LittleEndian.Uint64(raw[pos:])))
			pos += 8
		}
	case relal.Float:
		if len(raw) < 8*rows {
			return fmt.Errorf("rcfile: truncated float column")
		}
		for i := 0; i < rows; i++ {
			v.Floats = append(v.Floats, math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:])))
			pos += 8
		}
	case relal.Str:
		for i := 0; i < rows; i++ {
			if pos+4 > len(raw) {
				return fmt.Errorf("rcfile: truncated string column")
			}
			n := int(binary.LittleEndian.Uint32(raw[pos:]))
			pos += 4
			if pos+n > len(raw) {
				return fmt.Errorf("rcfile: truncated string cell")
			}
			v.Strs = append(v.Strs, string(raw[pos:pos+n]))
			pos += n
		}
	default:
		return fmt.Errorf("rcfile: unknown type %d", v.Kind)
	}
	return nil
}

// Source serves a table from its RCFile encoding through the relal scan
// operator: ReadCols does the column selection and zone-map pruning, so
// scans really decode only what the query asked for. Decode errors
// panic — a Source wraps bytes this process just encoded, so corruption
// is a programming bug, not an I/O condition.
//
// A Source is safe for concurrent scans: the encoded bytes and the
// parsed footer (decoded once, at construction) are read-only, so query
// streams can share one Source per table; each scan's accounting goes
// into its own ScanStats and from there into the caller's step log.
// Attaching a shared ChunkCache (SetCache, before serving scans) makes
// repeated reads of hot chunks skip the inflation and decoding entirely.
type Source struct {
	name   string
	schema relal.Schema
	data   []byte
	parsed *parsed
	id     uint64 // content hash of data; the chunk cache's file key
	cache  *ChunkCache
}

// NewSource encodes t with the given row-group size (0 = default).
func NewSource(t *relal.Table, groupRows int) (*Source, error) {
	data, err := NewWriter(groupRows).Write(t)
	if err != nil {
		return nil, err
	}
	p, err := parse(data, t.Schema)
	if err != nil {
		return nil, err
	}
	return &Source{name: t.Name, schema: t.Schema, data: data, parsed: p, id: fileID(data)}, nil
}

// NewSourceFromBytes wraps an already-encoded RCFile — the durable-store
// recovery path, where the bytes come off disk rather than out of this
// process's writer. The footer (magic, structure, dictionary CRCs) is
// validated here; chunk CRCs are verified lazily on first decode, so a
// flipped bit inside a chunk surfaces as ErrCorrupt from TryScan.
func NewSourceFromBytes(data []byte, schema relal.Schema, name string) (*Source, error) {
	p, err := parse(data, schema)
	if err != nil {
		return nil, err
	}
	return &Source{name: name, schema: schema, data: data, parsed: p, id: fileID(data)}, nil
}

// SetCache attaches a shared decoded-chunk cache. Call before the
// Source starts serving scans; concurrent scans then share the cache
// safely (the cache locks internally, the field itself is not mutated
// again).
func (s *Source) SetCache(c *ChunkCache) { s.cache = c }

// FileID returns the content-derived file identity chunk-cache keys and
// per-file accounting dedupe on: two Sources over byte-identical files
// report the same ID.
func (s *Source) FileID() uint64 { return s.id }

// SrcName returns the table name.
func (s *Source) SrcName() string { return s.name }

// SrcSchema returns the table schema.
func (s *Source) SrcSchema() relal.Schema { return s.schema }

// Bytes returns the encoded file size.
func (s *Source) Bytes() int { return len(s.data) }

// Data returns the encoded file bytes (read-only — shared, not copied).
func (s *Source) Data() []byte { return s.data }

// EncodingStats returns the per-column encoding census of the encoded
// file (cmd/scanstats' histogram; footer only, no decompression).
func (s *Source) EncodingStats() []ColEncStats {
	out := make([]ColEncStats, len(s.schema))
	for _, gr := range s.parsed.groups {
		for c := range s.schema {
			out[c].Chunks[gr.encs[c]]++
			if gr.deflated[c] {
				out[c].Deflated[gr.encs[c]]++
			}
			out[c].CompBytes[gr.encs[c]] += int64(gr.compLens[c])
		}
	}
	return out
}

// ScanTable implements relal.Source. It panics on decode errors — for a
// Source wrapping bytes this process just encoded, corruption is a
// programming bug. Sources over bytes read back from disk should scan
// through TryScan and handle ErrCorrupt.
func (s *Source) ScanTable(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats) {
	t, stats, err := s.TryScan(cols, pred)
	if err != nil {
		panic("rcfile: " + err.Error())
	}
	return t, stats
}

// TryScan is ScanTable with errors instead of panics: a chunk whose
// CRC32 does not match comes back as an error wrapping ErrCorrupt
// (with stats.CorruptChunks set), letting a caller that holds redundant
// data degrade and rebuild instead of crashing or returning wrong rows.
func (s *Source) TryScan(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats, error) {
	t, stats, err := readColsCached(s.data, s.parsed, s.schema, s.name, cols, pred, s.cache, s.id)
	if err != nil {
		return nil, stats, err
	}
	return t, stats, nil
}
