// Package rcfile implements the RCFile columnar storage format the
// paper's Hive tables used: rows are grouped into row groups, each row
// group stores its columns contiguously, and every column chunk is
// compressed (GZIP in the paper's configuration).
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
// lightweight encodings a clustered columnar layout earns:
//
//	enc 0 plain      length-prefixed strings / fixed 8-byte numerics
//	enc 1 gdict      frame-of-reference packed global codes (Str)
//	enc 2 gdict+rle  run-length encoded global codes (Str)
//	enc 3 rle        run-length encoded values (Int/Float)
//	enc 4 delta      frame-of-reference packed values (Int)
//
// The writer is adaptive per chunk: relal.PlanChunk models every
// applicable candidate's payload size and the writer lays down and
// compresses the smallest (ties go to plain — same bytes, simpler
// decode). On data clustered by a sort column the dominant chunks
// collapse to runs; on sequential keys delta packs 8-byte integers into
// 1–4. Run-length encoding is a storage encoding only: a decoded RLE
// chunk stays a run list in the chunk cache (charged that footprint) and
// expands where a column is assembled from its chunks, so the engine
// sees one entry per row; global-code chunks reassemble against the file
// dictionary with no per-group union merge. The in-memory scan model
// charges the same plan's bytes, which are these encodings' exact
// pre-compression payload lengths (TestChunkPlanMatchesFile).
//
// Version 5 adds a CRC32 per chunk (and per dictionary blob) to the
// footer, verified before decompression. Corruption surfaces as a typed
// ErrCorrupt from TryScan, so a durable store can detect a damaged part
// and rebuild it instead of serving wrong rows. Version 6 closes the
// gap that left: one more CRC32, in the trailer, covers the header
// counts and the whole footer (group rows, chunk lengths, encodings,
// stored CRCs, zone maps), so a flipped bit there is ErrCorrupt too.
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

	"elephants/internal/relal"
)

// DefaultRowGroupRows is the row-group size in rows (RCFile defaults to
// 4 MB groups; for the 100–150 byte TPC-H rows this is comparable). It
// matches relal.DefaultScanGroupRows so in-memory scan modeling agrees
// with the on-disk layout.
const DefaultRowGroupRows = relal.DefaultScanGroupRows

// Chunk encodings (the footer's per-chunk enc byte).
const (
	encPlain    = byte(0) // length-prefixed strings / fixed 8-byte numerics
	encGDict    = byte(1) // FOR-packed global codes (Str)
	encGDictRLE = byte(2) // run-length encoded global codes (Str)
	encRLE      = byte(3) // run-length encoded values (Int/Float)
	encDelta    = byte(4) // FOR-packed values (Int)
	numEncs     = 5
)

// EncNames names the chunk encodings, indexed by enc byte (tooling).
var EncNames = [numEncs]string{"plain", "gdict", "gdict+rle", "rle", "delta"}

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

// file layout (version 6):
//
//	magic "RCF6"
//	uint32 numColumns
//	uint32 numGroups
//	per group: the compressed column chunks, concatenated (chunk
//	  lengths live in the footer, so a reader can skip any chunk — or a
//	  whole group — with pointer arithmetic instead of decompression)
//	footer:
//	  global dictionary section, per column:
//	    uint8 flag (1 = dictionary follows)
//	    uint32 compLen, uint32 crc (CRC32 of the blob), then a gzip
//	    blob holding uint32 count and count length-prefixed values
//	    (sorted)
//	  per group:
//	    uint32 rows
//	    per column:
//	      uint32 compLen
//	      uint8  enc
//	      uint32 crc (CRC32 of the compressed chunk bytes)
//	      zone map (typed min/max; enc 1/2 prepend min/max global codes)
//	trailer:
//	  uint32 footerLen (bytes of footer, ending where the trailer starts)
//	  uint32 crc (CRC32 of numColumns, numGroups, footer and footerLen)
//
// Every chunk and dictionary blob carries a CRC32 of its compressed
// bytes, verified before decompression, and the trailer CRC is verified
// before any footer field is used — a flipped bit anywhere in the file
// surfaces as ErrCorrupt (or a parse error) instead of garbage rows,
// which the htap view layer uses to quarantine and re-convert a part
// rather than serve a wrong answer.
//
// Chunk payloads (before gzip):
//
//	plain      Str: rows × (u32 len + bytes); numeric: rows × 8 bytes
//	gdict      u8 width, u32 codeBase, rows × width (code − codeBase)
//	gdict+rle  u8 width, u32 codeBase, u32 runs,
//	           runs × (width bytes code − codeBase, u32 runLen)
//	rle        u32 runs, runs × (8-byte value, u32 runLen)
//	delta      u8 width, 8-byte base (chunk min), rows × width
//	           (value − base, little-endian)
//
// width ∈ {0, 1, 2, 4} (relal.FORWidth); width 0 means every row equals
// the base. Every chunk is gzip-compressed.

var magic = []byte("RCF6")

// ErrCorrupt is the typed corruption error: a chunk, dictionary blob or
// footer whose stored CRC32 does not match its bytes. Callers that can
// degrade (the htap view layer) test with errors.Is and rebuild the
// part; the panic-on-error Scan path still panics, wrapping this.
var ErrCorrupt = errors.New("rcfile: corrupt chunk")

// Write encodes t.
func (w *Writer) Write(t *relal.Table) ([]byte, error) {
	d := t.Compacted() // dense vectors; no-op unless t is a view
	var out bytes.Buffer
	out.Write(magic)
	binary.Write(&out, binary.LittleEndian, uint32(len(d.Schema)))
	n := d.NumRows()
	numGroups := (n + w.groupRows - 1) / w.groupRows
	binary.Write(&out, binary.LittleEndian, uint32(numGroups))
	var footer bytes.Buffer
	for _, v := range d.Cols {
		if !v.IsDict() {
			footer.WriteByte(0)
			continue
		}
		vals := v.DictVals
		blob, err := gzipChunk(func(w io.Writer) error {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(len(vals)))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
			for _, s := range vals {
				binary.LittleEndian.PutUint32(buf[:], uint32(len(s)))
				if _, err := w.Write(buf[:]); err != nil {
					return err
				}
				if _, err := io.WriteString(w, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		footer.WriteByte(1)
		binary.Write(&footer, binary.LittleEndian, uint32(len(blob)))
		binary.Write(&footer, binary.LittleEndian, crc32.ChecksumIEEE(blob))
		footer.Write(blob)
	}
	for g := 0; g < numGroups; g++ {
		lo := g * w.groupRows
		hi := lo + w.groupRows
		if hi > n {
			hi = n
		}
		binary.Write(&footer, binary.LittleEndian, uint32(hi-lo))
		for c := range d.Schema {
			v := d.Cols[c]
			plan := relal.PlanChunk(v, lo, hi)
			chunk, err := encodeChunk(v, lo, hi, plan)
			if err != nil {
				return nil, err
			}
			out.Write(chunk)
			binary.Write(&footer, binary.LittleEndian, uint32(len(chunk)))
			footer.WriteByte(plan.Enc)
			binary.Write(&footer, binary.LittleEndian, crc32.ChecksumIEEE(chunk))
			writeZone(&footer, plan.Zone, plan.Enc)
		}
	}
	out.Write(footer.Bytes())
	binary.Write(&out, binary.LittleEndian, uint32(footer.Len()))
	b := out.Bytes()
	binary.Write(&out, binary.LittleEndian, footerCRC(b[4:12], b[len(b)-footer.Len()-4:]))
	return out.Bytes(), nil
}

// encodeChunk lays rows [lo, hi) of v down in the encoding
// relal.PlanChunk chose for them and compresses the payload; the plan's
// zone map, width and run count are the base, cell width and run header
// the layouts store.
func encodeChunk(v *relal.Vector, lo, hi int, plan relal.ChunkPlan) ([]byte, error) {
	return gzipChunk(func(w io.Writer) error {
		switch plan.Enc {
		case encGDict:
			return writeGDictChunk(w, v.Dict[lo:hi], plan.Zone.CodeMin, plan.Width)
		case encGDictRLE:
			return writeGDictRLEChunk(w, v.Dict[lo:hi], plan.Zone.CodeMin, plan.Width, plan.Runs)
		case encRLE:
			return writeRLEChunk(w, v, lo, hi, plan.Runs)
		case encDelta:
			return writeDeltaChunk(w, v.Ints[lo:hi], plan.Zone.IntMin, plan.Width)
		}
		return writePlainChunk(w, v, lo, hi)
	})
}

// writeZone appends one zone map in its typed encoding. Global-code
// chunks (enc 1/2) prepend the chunk's min/max codes — absolute indices
// into the file dictionary — so code-space tooling and the dense
// aggregation planner can size code ranges without decompression;
// pruning consumes only the strings.
func writeZone(w *bytes.Buffer, z relal.ZoneMap, enc byte) {
	switch z.Kind {
	case relal.Int:
		binary.Write(w, binary.LittleEndian, z.IntMin)
		binary.Write(w, binary.LittleEndian, z.IntMax)
	case relal.Float:
		binary.Write(w, binary.LittleEndian, math.Float64bits(z.FloatMin))
		binary.Write(w, binary.LittleEndian, math.Float64bits(z.FloatMax))
	default:
		if enc == encGDict || enc == encGDictRLE {
			binary.Write(w, binary.LittleEndian, z.CodeMin)
			binary.Write(w, binary.LittleEndian, z.CodeMax)
		}
		for _, s := range []string{z.StrMin, z.StrMax} {
			binary.Write(w, binary.LittleEndian, uint32(len(s)))
			w.WriteString(s)
		}
	}
}

// writePlainChunk streams one plain column's cells in rows [lo, hi)
// straight from the typed vector.
func writePlainChunk(w io.Writer, v *relal.Vector, lo, hi int) error {
	var buf [8]byte
	switch v.Kind {
	case relal.Int:
		for _, x := range v.Ints[lo:hi] {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case relal.Float:
		for _, f := range v.Floats[lo:hi] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case relal.Str:
		for p := lo; p < hi; p++ {
			s := v.StrAt(int32(p)) // decodes dict vectors on the way out
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(s)))
			if _, err := w.Write(buf[:4]); err != nil {
				return err
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("rcfile: unknown type %d", v.Kind)
	}
	return nil
}

// putPacked writes the low width bytes of x, little-endian (width 0
// writes nothing).
func putPacked(w io.Writer, x uint64, width int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	_, err := w.Write(buf[:width])
	return err
}

// writeGDictChunk packs global codes frame-of-reference: the chunk's
// minimum code is the base, every row stores code − base in width bytes.
func writeGDictChunk(w io.Writer, codes []uint32, base uint32, width int) error {
	var hdr [5]byte
	hdr[0] = byte(width)
	binary.LittleEndian.PutUint32(hdr[1:], base)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, c := range codes {
		if err := putPacked(w, uint64(c-base), width); err != nil {
			return err
		}
	}
	return nil
}

// writeGDictRLEChunk writes global codes as (code − base, runLen) runs.
func writeGDictRLEChunk(w io.Writer, codes []uint32, base uint32, width, runs int) error {
	var hdr [9]byte
	hdr[0] = byte(width)
	binary.LittleEndian.PutUint32(hdr[1:], base)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(runs))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for i := 0; i < len(codes); {
		j := i + 1
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		if err := putPacked(w, uint64(codes[i]-base), width); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(j-i))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// writeRLEChunk writes a numeric column's rows [lo, hi) as
// (value, runLen) runs, floats compared by bit pattern.
func writeRLEChunk(w io.Writer, v *relal.Vector, lo, hi, runs int) error {
	bits := func(i int) uint64 {
		if v.Kind == relal.Int {
			return uint64(v.Ints[i])
		}
		return math.Float64bits(v.Floats[i])
	}
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(runs))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && bits(j) == bits(i) {
			j++
		}
		binary.LittleEndian.PutUint64(buf[:8], bits(i))
		binary.LittleEndian.PutUint32(buf[8:], uint32(j-i))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// writeDeltaChunk packs ints frame-of-reference: the chunk minimum is
// the 8-byte base, every row stores value − base in width bytes.
func writeDeltaChunk(w io.Writer, xs []int64, base int64, width int) error {
	var hdr [9]byte
	hdr[0] = byte(width)
	binary.LittleEndian.PutUint64(hdr[1:], uint64(base))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, x := range xs {
		if err := putPacked(w, uint64(x)-uint64(base), width); err != nil {
			return err
		}
	}
	return nil
}

// group is the decoded footer entry for one row group.
type group struct {
	rows     int
	offset   int64 // byte offset of the group's first chunk
	compLens []uint32
	encs     []byte
	crcs     []uint32 // CRC32 of each compressed chunk
	zones    []relal.ZoneMap
}

// parsed is the decoded file structure (footer only — chunk bytes stay
// compressed until a read asks for them).
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
	case encRLE:
		return kind == relal.Int || kind == relal.Float
	case encDelta:
		return kind == relal.Int
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
		if got := crc32.ChecksumIEEE(f[pos : pos+compLen]); got != dictCRC {
			return nil, fmt.Errorf("%w: dictionary blob of column %q (crc %08x, want %08x)",
				ErrCorrupt, schema[c].Name, got, dictCRC)
		}
		gz, err := gzip.NewReader(bytes.NewReader(f[pos : pos+compLen]))
		if err != nil {
			return nil, err
		}
		blob, err := io.ReadAll(gz)
		if err != nil {
			return nil, err
		}
		pos += compLen
		if len(blob) < 4 {
			return nil, fmt.Errorf("rcfile: truncated dictionary")
		}
		count := int(binary.LittleEndian.Uint32(blob))
		if count < 0 || count > len(blob) {
			return nil, fmt.Errorf("rcfile: implausible dictionary size %d", count)
		}
		vals := make([]string, 0, count)
		bp := 4
		for i := 0; i < count; i++ {
			if bp+4 > len(blob) {
				return nil, fmt.Errorf("rcfile: truncated dictionary")
			}
			sl := int(binary.LittleEndian.Uint32(blob[bp:]))
			bp += 4
			if sl < 0 || bp+sl > len(blob) {
				return nil, fmt.Errorf("rcfile: truncated dictionary value")
			}
			vals = append(vals, string(blob[bp:bp+sl]))
			bp += sl
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
			crcs:     make([]uint32, numCols),
			zones:    make([]relal.ZoneMap, numCols),
		}
		pos += 4
		for c := uint32(0); c < numCols; c++ {
			if err := need(9); err != nil {
				return nil, err
			}
			gr.compLens[c] = binary.LittleEndian.Uint32(f[pos:])
			gr.encs[c] = f[pos+4]
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

// gzipChunk runs one chunk encoder through gzip and returns the
// compressed bytes.
func gzipChunk(fn func(w io.Writer) error) ([]byte, error) {
	var col bytes.Buffer
	gz := gzip.NewWriter(&col)
	if err := fn(gz); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return col.Bytes(), nil
}

// verifyChunk checks a chunk's stored CRC32 against its bytes.
func verifyChunk(data []byte, chunkOff int64, compLen, want uint32) error {
	if chunkOff+int64(compLen) > int64(len(data)) {
		return fmt.Errorf("%w: truncated chunk", ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(data[chunkOff : chunkOff+int64(compLen)]); got != want {
		return fmt.Errorf("%w: crc %08x, want %08x", ErrCorrupt, got, want)
	}
	return nil
}

// inflateChunk decompresses one chunk's payload.
func inflateChunk(data []byte, chunkOff int64, compLen uint32) ([]byte, error) {
	if chunkOff+int64(compLen) > int64(len(data)) {
		return nil, fmt.Errorf("rcfile: truncated chunk")
	}
	gz, err := gzip.NewReader(bytes.NewReader(data[chunkOff : chunkOff+int64(compLen)]))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(gz)
}

// Read decodes an RCFile produced by Write, given the schema: every
// column of every row group (the pre-pushdown Hive behaviour).
func Read(data []byte, schema relal.Schema, name string) (*relal.Table, error) {
	t, _, err := ReadCols(data, schema, name, nil, nil)
	return t, err
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
// requested chunks are decompressed; everything else is skipped with
// pointer arithmetic and accounted in the stats as compressed bytes.
// Run-length chunks expand to one entry per row as the column is
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
// under (file, group, column) before inflating, and fresh decodes are
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
				if err := verifyChunk(data, off, gr.compLens[ci], gr.crcs[ci]); err != nil {
					stats.CorruptChunks++
					return nil, stats, fmt.Errorf("%s group %d column %q: %w", name, g, schema[ci].Name, err)
				}
				raw, err := inflateChunk(data, off, gr.compLens[ci])
				if err != nil {
					return nil, stats, err
				}
				if cd, err = decodeChunk(raw, schema[ci].Type, gr.encs[ci], gr.rows, p.dicts[ci]); err != nil {
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

// decodeChunk inflates one chunk payload into its standalone decoded
// form — fresh slices, not appends onto a caller vector — so the result
// is safe to share through the chunk cache. Run-length chunks stay run
// lists; global-code chunks stay codes (the dictionary lives in the
// parsed footer, not the cache entry).
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
	case encRLE:
		return readRLEChunk(raw, kind, rows)
	case encDelta:
		ints, err := readDeltaChunk(raw, rows)
		if err != nil {
			return chunkData{}, err
		}
		return chunkData{ints: ints}, nil
	}
	return chunkData{}, fmt.Errorf("rcfile: unknown chunk encoding %d", enc)
}

// getPacked reads a width-byte little-endian value (width 0 reads 0).
func getPacked(raw []byte, pos, width int) uint64 {
	var buf [8]byte
	copy(buf[:], raw[pos:pos+width])
	return binary.LittleEndian.Uint64(buf[:])
}

// readGDictChunk decodes FOR-packed global codes.
func readGDictChunk(raw []byte, rows, dictLen int) ([]uint32, error) {
	if len(raw) < 5 {
		return nil, fmt.Errorf("rcfile: truncated gdict chunk")
	}
	width := int(raw[0])
	if width != 0 && width != 1 && width != 2 && width != 4 {
		return nil, fmt.Errorf("rcfile: bad code width %d", width)
	}
	base := binary.LittleEndian.Uint32(raw[1:])
	pos := 5
	if pos+rows*width > len(raw) {
		return nil, fmt.Errorf("rcfile: truncated codes")
	}
	codes := make([]uint32, rows)
	for i := range codes {
		c := base + uint32(getPacked(raw, pos, width))
		if int(c) >= dictLen {
			return nil, fmt.Errorf("rcfile: code %d out of dictionary range %d", c, dictLen)
		}
		codes[i] = c
		pos += width
	}
	return codes, nil
}

// readGDictRLEChunk decodes run-length encoded global codes into a
// chunk-local run list.
func readGDictRLEChunk(raw []byte, rows, dictLen int) ([]uint32, []int32, error) {
	if len(raw) < 9 {
		return nil, nil, fmt.Errorf("rcfile: truncated gdict+rle chunk")
	}
	width := int(raw[0])
	if width != 0 && width != 1 && width != 2 && width != 4 {
		return nil, nil, fmt.Errorf("rcfile: bad code width %d", width)
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
		c := base + uint32(getPacked(raw, pos, width))
		if int(c) >= dictLen {
			return nil, nil, fmt.Errorf("rcfile: code %d out of dictionary range %d", c, dictLen)
		}
		pos += width
		rl := int(binary.LittleEndian.Uint32(raw[pos:]))
		pos += 4
		if rl <= 0 || total+rl > rows {
			return nil, nil, fmt.Errorf("rcfile: bad run length %d", rl)
		}
		codes[k] = c
		total += rl
		ends[k] = int32(total)
	}
	if total != rows {
		return nil, nil, fmt.Errorf("rcfile: runs cover %d of %d rows", total, rows)
	}
	return codes, ends, nil
}

// readRLEChunk decodes a numeric run-length chunk into a run list.
func readRLEChunk(raw []byte, kind relal.Type, rows int) (chunkData, error) {
	if len(raw) < 4 {
		return chunkData{}, fmt.Errorf("rcfile: truncated rle chunk")
	}
	runs := int(binary.LittleEndian.Uint32(raw[:4]))
	if runs < 0 || runs > rows {
		return chunkData{}, fmt.Errorf("rcfile: implausible run count %d for %d rows", runs, rows)
	}
	if len(raw) < 4+12*runs {
		return chunkData{}, fmt.Errorf("rcfile: truncated runs")
	}
	cd := chunkData{ends: make([]int32, runs)}
	if kind == relal.Int {
		cd.ints = make([]int64, runs)
	} else {
		cd.floats = make([]float64, runs)
	}
	pos := 4
	total := 0
	for k := 0; k < runs; k++ {
		bits := binary.LittleEndian.Uint64(raw[pos:])
		rl := int(binary.LittleEndian.Uint32(raw[pos+8:]))
		pos += 12
		if rl <= 0 || total+rl > rows {
			return chunkData{}, fmt.Errorf("rcfile: bad run length %d", rl)
		}
		if kind == relal.Int {
			cd.ints[k] = int64(bits)
		} else {
			cd.floats[k] = math.Float64frombits(bits)
		}
		total += rl
		cd.ends[k] = int32(total)
	}
	if total != rows {
		return chunkData{}, fmt.Errorf("rcfile: runs cover %d of %d rows", total, rows)
	}
	return cd, nil
}

// readDeltaChunk decodes FOR-packed ints.
func readDeltaChunk(raw []byte, rows int) ([]int64, error) {
	if len(raw) < 9 {
		return nil, fmt.Errorf("rcfile: truncated delta chunk")
	}
	width := int(raw[0])
	if width != 0 && width != 1 && width != 2 && width != 4 {
		return nil, fmt.Errorf("rcfile: bad delta width %d", width)
	}
	base := uint64(binary.LittleEndian.Uint64(raw[1:]))
	pos := 9
	if pos+rows*width > len(raw) {
		return nil, fmt.Errorf("rcfile: truncated deltas")
	}
	out := make([]int64, rows)
	for i := range out {
		out[i] = int64(base + getPacked(raw, pos, width))
		pos += width
	}
	return out, nil
}

// rowsOf returns the row count a decoded chunk covers.
func (d chunkData) rowsOf(kind relal.Type) int {
	if kind == relal.Str {
		if d.str.raw != nil {
			return len(d.str.raw)
		}
		if d.str.ends != nil {
			return int(d.str.ends[len(d.str.ends)-1])
		}
		return len(d.str.codes)
	}
	if d.ends != nil {
		if len(d.ends) == 0 {
			return 0
		}
		return int(d.ends[len(d.ends)-1])
	}
	return len(d.ints) + len(d.floats)
}

// assembleCol merges one column's decoded chunks, in group order, into
// a single vector with one entry per row: run-length chunks expand
// here (the cache keeps them as run lists); global-code chunks become a
// dict vector over the file dictionary.
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
		total += p.rowsOf(kind)
	}
	if kind == relal.Int {
		out := make([]int64, 0, total)
		for _, p := range parts {
			if p.ends == nil {
				out = append(out, p.ints...)
				continue
			}
			prev := int32(0)
			for k, e := range p.ends {
				for ; prev < e; prev++ {
					out = append(out, p.ints[k])
				}
			}
		}
		return relal.IntsV(out)
	}
	out := make([]float64, 0, total)
	for _, p := range parts {
		if p.ends == nil {
			out = append(out, p.floats...)
			continue
		}
		prev := int32(0)
		for k, e := range p.ends {
			for ; prev < e; prev++ {
				out = append(out, p.floats[k])
			}
		}
	}
	return relal.FloatsV(out)
}

// assembleStrCol merges a Str column's decoded chunks. All code-based
// chunks share the file-global dictionary, so codes concatenate with no
// union merge: RLE chunks expand to one code per row, and any raw chunk
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

// ZoneMaps returns the footer's zone maps, per group per column (test
// and tooling introspection).
func ZoneMaps(data []byte, schema relal.Schema) ([][]relal.ZoneMap, error) {
	p, err := parse(data, schema)
	if err != nil {
		return nil, err
	}
	out := make([][]relal.ZoneMap, len(p.groups))
	for g, gr := range p.groups {
		out[g] = gr.zones
	}
	return out, nil
}

// ColEncStats is one column's per-encoding chunk census: how many
// chunks the adaptive writer settled on each encoding, and their
// compressed bytes. Indexed by enc byte (see EncNames).
type ColEncStats struct {
	Chunks    [numEncs]int
	CompBytes [numEncs]int64
}

// EncodingStats reads the footer's per-chunk encoding census, one entry
// per column (cmd/scanstats' histogram; no chunk is decompressed).
func EncodingStats(data []byte, schema relal.Schema) ([]ColEncStats, error) {
	p, err := parse(data, schema)
	if err != nil {
		return nil, err
	}
	out := make([]ColEncStats, len(schema))
	for _, gr := range p.groups {
		for c := range schema {
			out[c].Chunks[gr.encs[c]]++
			out[c].CompBytes[gr.encs[c]] += int64(gr.compLens[c])
		}
	}
	return out, nil
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
// scans really decompress only what the query asked for. Decode errors
// panic — a Source wraps bytes this process just encoded, so corruption
// is a programming bug, not an I/O condition.
//
// A Source is safe for concurrent scans: the encoded bytes and the
// parsed footer (decoded once, at construction) are read-only, and the
// cumulative byte accounting goes through an atomic counter, so query
// streams can share one Source per table. Attaching a shared ChunkCache
// (SetCache, before serving scans) makes repeated reads of hot chunks
// skip the gzip inflation entirely.
type Source struct {
	name    string
	schema  relal.Schema
	data    []byte
	parsed  *parsed
	id      uint64 // content hash of data; the chunk cache's file key
	cache   *ChunkCache
	counter relal.ScanCounter
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

// SetCache attaches a shared decompressed-chunk cache. Call before the
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
// The durable store persists exactly these bytes as a part file.
func (s *Source) Data() []byte { return s.data }

// EncodingStats returns the per-column encoding census of the encoded
// file (footer only, no decompression).
func (s *Source) EncodingStats() []ColEncStats {
	out := make([]ColEncStats, len(s.schema))
	for _, gr := range s.parsed.groups {
		for c := range s.schema {
			out[c].Chunks[gr.encs[c]]++
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
// data — the htap store, whose delta log covers every converted part —
// degrade and rebuild instead of crashing or returning wrong rows.
func (s *Source) TryScan(cols []string, pred relal.ZonePredicate) (*relal.Table, relal.ScanStats, error) {
	t, stats, err := readColsCached(s.data, s.parsed, s.schema, s.name, cols, pred, s.cache, s.id)
	s.counter.Observe(stats)
	if err != nil {
		return nil, stats, err
	}
	return t, stats, nil
}

// TotalStats returns the byte accounting accumulated over every scan
// this source has served, from any goroutine. Two streams hammering one
// Source sum exactly: the accumulation is atomic, not a plain struct
// add.
func (s *Source) TotalStats() relal.ScanStats { return s.counter.Total() }

// CompressionRatio encodes t and returns compressed/uncompressed size.
// TPC-H text compresses heavily under columnar gzip; the Hive cost model
// multiplies text sizes by this ratio to get on-disk bucket sizes.
func CompressionRatio(t *relal.Table) (float64, error) {
	if t.NumRows() == 0 {
		return 1, nil
	}
	w := NewWriter(0)
	data, err := w.Write(t)
	if err != nil {
		return 0, err
	}
	raw := t.AvgRowBytes() * t.NumRows()
	if raw == 0 {
		return 1, nil
	}
	return float64(len(data)) / float64(raw), nil
}
