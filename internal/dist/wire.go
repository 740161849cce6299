// Package dist is the coordinator/shard execution layer: the paper's
// 16-node PDW and sharded-Mongo clusters shrunk to localhost processes.
// lineitem and orders are hash-partitioned by orderkey into per-process
// RCF6 shards (internal/shard routing, one internal/htap store each);
// the coordinator scatters scans and query fragments over TCP and
// merges the partials deterministically, so all 22 golden answers stay
// byte-identical at any shard count.
//
// Storage format and message format are separate decisions, as they are
// in the paper's PDW: a shard keeps its partition as compressed RCF6
// parts, but what crosses the wire is the result's column vectors laid
// out flat (see the table encoding below) — no compression and no
// per-chunk encoding choice on the data path; the frame checksum covers
// every byte.
//
// Robustness is the contract, not a bolt-on: every fragment carries a
// deadline in the wire protocol, every call retries with exponential
// backoff and seeded jitter, per-shard circuit breakers fail fast while
// health probes watch for recovery, and a query against a dead shard
// either retries to success after the shard restarts (replaying its
// delta log via htap.Open) or returns a typed ErrPartial — never a
// silently wrong answer.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"elephants/internal/relal"
)

// Wire ops.
const (
	// OpScan returns the shard's partition of a base table, restricted
	// to the requested columns (plus the hidden _pos position column)
	// with zone-pruned row groups dropped.
	OpScan = iota
	// OpFragment runs a registered tpch.Fragment partial plan on the
	// shard and returns the grouped partial aggregate.
	OpFragment
	// OpHealth is the probe: cheap, no data plane, returns the shard's
	// delta-log positions so callers can assert recovery completeness.
	OpHealth
)

// Request is one coordinator→shard message.
type Request struct {
	Op    int
	Table string
	Cols  []string
	Pred  relal.ZonePredicate
	// FragID selects the tpch.Fragments entry for OpFragment.
	FragID int
	// DeadlineMS is the fragment's remaining time budget in
	// milliseconds; the shard arms its connection deadline with it so a
	// stalled peer can never wedge a shard goroutine past the budget.
	DeadlineMS int64
}

// Response is one shard→coordinator message.
type Response struct {
	// Err, when non-empty, is the shard-side failure; the payload
	// fields are meaningless.
	Err string
	// Shard echoes the responding shard's index.
	Shard int
	// Schema and Rows describe the returned table; Data is its column
	// vectors in the table wire encoding (nil when Rows is 0 — an empty
	// table round-trips as schema only). Data travels outside the gob
	// header, and a decoded response's Data aliases the frame it came
	// from.
	Schema relal.Schema
	Rows   int
	Data   []byte
	// Stats is the shard-local scan accounting (OpScan only).
	Stats relal.ScanStats
	// NextPos maps held tables to their next delta-log position
	// (OpHealth only) — the recovery-completeness witness.
	NextPos map[string]int64
}

// maxFrame bounds a frame payload; anything larger is a protocol error,
// not a real message (an uncompressed full scan of an SF-0.01 lineitem
// partition is a few megabytes).
const maxFrame = 1 << 28

// WriteFrame writes one length-framed, CRC-trailed message:
// u32 payload length | payload | u32 CRC-32 (IEEE) of the payload —
// the delta log's framing, reused on the wire so a truncated or
// bit-flipped message is detected, never decoded.
func WriteFrame(w io.Writer, payload []byte) error {
	f, err := beginFrame(w, len(payload))
	if err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		return err
	}
	return f.end()
}

// frameWriter writes one frame whose payload arrives in pieces: the
// length goes out first, the checksum accumulates as the pieces pass
// through, and end appends it — or refuses to, if the pieces did not add
// up to the length announced.
type frameWriter struct {
	w    io.Writer
	crc  uint32
	left int
}

func beginFrame(w io.Writer, payloadLen int) (*frameWriter, error) {
	if payloadLen > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d exceeds limit", payloadLen)
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, uint32(payloadLen)))
	return &frameWriter{w: w, left: payloadLen}, err
}

func (f *frameWriter) Write(p []byte) (int, error) {
	f.crc = crc32.Update(f.crc, crc32.IEEETable, p)
	f.left -= len(p)
	return f.w.Write(p)
}

func (f *frameWriter) end() error {
	if f.left != 0 {
		return fmt.Errorf("dist: frame payload off its announced length by %d bytes", -f.left)
	}
	_, err := f.w.Write(binary.LittleEndian.AppendUint32(nil, f.crc))
	return err
}

// ReadFrame reads one frame, verifying length and checksum.
func ReadFrame(r io.Reader) ([]byte, error) {
	raw, err := readRawFrame(r)
	if err != nil {
		return nil, err
	}
	payload, trailer := raw[4:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("dist: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}

// frameReadStep is the first allocation of a frame read; every later
// one is frameReadGrowth times the bytes received so far. The factor is
// steep because a scan response is megabytes and each regrowth leaves
// the previous buffer behind as garbage: at 8 a response costs two
// regrowths and, on average, about a third of its size in discarded
// buffers (doubling costs five and all of it).
const (
	frameReadStep   = 64 << 10
	frameReadGrowth = 8
)

// readRawFrame reads one frame's bytes (header, payload, CRC) without
// validating the checksum — ReadFrame's first half, and the network
// fault injector's raw material for tearing. The header's length is a
// claim by the peer, so the buffer only grows as bytes actually arrive:
// a garbage or torn header costs memory in proportion to what was
// received, not to what was announced.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	total := 4 + int(n) + 4
	raw := make([]byte, 4, min(total, frameReadStep))
	copy(raw, hdr[:])
	for len(raw) < total {
		if len(raw) == cap(raw) {
			grown := make([]byte, len(raw), min(total, frameReadGrowth*cap(raw)))
			copy(grown, raw)
			raw = grown
		}
		got, err := io.ReadFull(r, raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+got]
		if err != nil {
			return nil, err
		}
	}
	return raw, nil
}

// EncodeRequest gob-encodes a request for framing.
func EncodeRequest(req Request) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRequest inverts EncodeRequest.
func DecodeRequest(data []byte) (Request, error) {
	var req Request
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// EncodeResponse encodes a response for framing:
// u32 header length | gob of the response without Data | Data.
// Only the small header goes through gob; the bulk bytes are appended
// as they are, so they are copied once on the way out and not at all on
// the way in.
func EncodeResponse(resp Response) ([]byte, error) {
	data := resp.Data
	resp.Data = nil
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(resp); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 4+hdr.Len()+len(data))
	out = binary.LittleEndian.AppendUint32(out, uint32(hdr.Len()))
	out = append(out, hdr.Bytes()...)
	return append(out, data...), nil
}

// writeResponse frames resp with t's wire encoding as its Data (t nil:
// resp as it is) — the shard's send path. The table is never assembled
// into one payload: its exact size goes into the frame header up front
// and the columns follow one at a time through a single reused buffer,
// so sending a result costs the memory of its largest column, not of a
// second copy of the result.
func writeResponse(w io.Writer, resp Response, t *relal.Table) error {
	head, err := EncodeResponse(resp)
	if err != nil {
		return err
	}
	if t == nil {
		return WriteFrame(w, head)
	}
	f, err := beginFrame(w, len(head)+tableWireSize(t))
	if err != nil {
		return err
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint32(head, uint32(len(t.Cols)))); err != nil {
		return err
	}
	var buf []byte
	for _, v := range t.Cols {
		buf = appendColumn(buf[:0], v)
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return f.end()
}

// DecodeResponse inverts EncodeResponse. The returned Data aliases
// data.
func DecodeResponse(data []byte) (Response, error) {
	var resp Response
	if len(data) < 4 {
		return resp, errors.New("dist: response shorter than its header length")
	}
	hdrLen := binary.LittleEndian.Uint32(data)
	body := data[4:]
	if uint64(hdrLen) > uint64(len(body)) {
		return resp, fmt.Errorf("dist: response header length %d exceeds payload", hdrLen)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[:hdrLen])).Decode(&resp); err != nil {
		return resp, err
	}
	if rest := body[hdrLen:]; len(rest) > 0 {
		resp.Data = rest
	}
	return resp, nil
}

// Table wire encoding. A table crosses the wire as its column vectors,
// in schema order, in whichever shape the shard's scan produced them —
// flat or dictionary-encoded — so nothing is re-encoded on the way out
// and dictionary columns stay code-comparable on the way in. All
// integers little-endian:
//
//	table   u32 columns | column...
//	column  u8 tag (low two bits the relal.Type, wireDict)
//	        [wireDict: strings — the sorted dictionary, once]
//	        values — one entry per row:
//	          Int    u32 n | n × i64
//	          Float  u32 n | n × IEEE-754 bits
//	          dict   u32 n | n × u32 code
//	          Str    strings
//	strings u32 n | n × u32 byte length | the bytes, concatenated
//
// The row count and column types travel in Response.Rows and
// Response.Schema; the decoder holds every column to them.
const (
	wireKind = 0x03
	wireDict = 0x04
)

// tableWireSize returns the exact encoded size of t (dense).
func tableWireSize(t *relal.Table) int {
	size := 4
	for _, v := range t.Cols {
		size++
		if v.IsDict() {
			size += stringsWireSize(v.DictVals)
		}
		switch {
		case v.Kind == relal.Int:
			size += 4 + 8*len(v.Ints)
		case v.Kind == relal.Float:
			size += 4 + 8*len(v.Floats)
		case v.IsDict():
			size += 4 + 4*len(v.Dict)
		default:
			size += stringsWireSize(v.Strs)
		}
	}
	return size
}

func stringsWireSize(xs []string) int {
	size := 4 + 4*len(xs)
	for _, s := range xs {
		size += len(s)
	}
	return size
}

// appendColumn appends one dense vector's wire encoding to dst: the
// vector is shipped in the shape it has.
func appendColumn(dst []byte, v *relal.Vector) []byte {
	tag := byte(v.Kind)
	if v.IsDict() {
		tag |= wireDict
	}
	dst = append(dst, tag)
	if v.IsDict() {
		dst = appendStrings(dst, v.DictVals)
	}
	switch {
	case v.Kind == relal.Int:
		dst = appendInts(dst, v.Ints)
	case v.Kind == relal.Float:
		dst = appendFloats(dst, v.Floats)
	case v.IsDict():
		dst = appendCodes(dst, v.Dict)
	default:
		dst = appendStrings(dst, v.Strs)
	}
	return dst
}

// extend lengthens dst by n bytes and returns it with the offset the
// new bytes start at.
func extend(dst []byte, n int) ([]byte, int) {
	off := len(dst)
	return slices.Grow(dst, n)[:off+n], off
}

func appendInts(dst []byte, xs []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	dst, off := extend(dst, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[off+8*i:], uint64(x))
	}
	return dst
}

func appendFloats(dst []byte, xs []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	dst, off := extend(dst, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(x))
	}
	return dst
}

func appendCodes(dst []byte, xs []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	dst, off := extend(dst, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[off+4*i:], x)
	}
	return dst
}

func appendStrings(dst []byte, xs []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	dst, off := extend(dst, 4*len(xs))
	for i, s := range xs {
		binary.LittleEndian.PutUint32(dst[off+4*i:], uint32(len(s)))
	}
	for _, s := range xs {
		dst = append(dst, s...)
	}
	return dst
}

var errWireShort = errors.New("dist: table encoding ends early")

// wireReader consumes a table encoding front to back. Every read is
// checked against the bytes that remain before anything is allocated,
// so what a decode allocates is bounded by the length of its input.
type wireReader struct{ b []byte }

func (r *wireReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)) {
		return nil, errWireShort
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *wireReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// counted reads a u32 entry count and the count × width bytes it
// announces.
func (r *wireReader) counted(width int) (int, []byte, error) {
	n, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	body, err := r.take(uint64(n) * uint64(width))
	return int(n), body, err
}

// strings reads a strings block into one backing allocation: the block's
// bytes become a single string and the values are slices of it.
func (r *wireReader) strings() ([]string, error) {
	n, lens, err := r.counted(4)
	if err != nil {
		return nil, err
	}
	total := uint64(0)
	for i := 0; i < n; i++ {
		total += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	raw, err := r.take(total)
	if err != nil {
		return nil, err
	}
	blob := string(raw)
	out := make([]string, n)
	off := 0
	for i := range out {
		end := off + int(binary.LittleEndian.Uint32(lens[4*i:]))
		out[i] = blob[off:end]
		off = end
	}
	return out, nil
}

// column reads one column of the given type and logical row count,
// holding it to the vector invariants the engine relies on: dictionary
// sorted and duplicate-free, codes inside it, and one entry per row.
func (r *wireReader) column(kind relal.Type, rows int) (*relal.Vector, error) {
	tagByte, err := r.take(1)
	if err != nil {
		return nil, err
	}
	tag := tagByte[0]
	isDict := tag&wireDict != 0
	switch {
	case kind < relal.Int || kind > relal.Str:
		return nil, fmt.Errorf("dist: schema names column type %d", kind)
	case tag&^(wireKind|wireDict) != 0, relal.Type(tag&wireKind) != kind:
		return nil, fmt.Errorf("dist: column tag %#x does not encode a type-%d column", tag, kind)
	case isDict && kind != relal.Str:
		return nil, fmt.Errorf("dist: column tag %#x is not a vector shape", tag)
	}
	v := &relal.Vector{Kind: kind}
	if isDict {
		if v.DictVals, err = r.strings(); err != nil {
			return nil, err
		}
		for i := 1; i < len(v.DictVals); i++ {
			if v.DictVals[i-1] >= v.DictVals[i] {
				return nil, errors.New("dist: dictionary not sorted and duplicate-free")
			}
		}
	}
	var n int
	var body []byte
	switch {
	case kind == relal.Int:
		if n, body, err = r.counted(8); err != nil {
			return nil, err
		}
		v.Ints = make([]int64, n)
		for i := range v.Ints {
			v.Ints[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case kind == relal.Float:
		if n, body, err = r.counted(8); err != nil {
			return nil, err
		}
		v.Floats = make([]float64, n)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case isDict:
		if n, body, err = r.counted(4); err != nil {
			return nil, err
		}
		v.Dict = make([]uint32, n)
		for i := range v.Dict {
			c := binary.LittleEndian.Uint32(body[4*i:])
			if c >= uint32(len(v.DictVals)) {
				return nil, fmt.Errorf("dist: code %d outside a dictionary of %d", c, len(v.DictVals))
			}
			v.Dict[i] = c
		}
	default:
		if v.Strs, err = r.strings(); err != nil {
			return nil, err
		}
		n = len(v.Strs)
	}
	if n != rows {
		return nil, fmt.Errorf("dist: column has %d cells, want %d", n, rows)
	}
	return v, nil
}

// decodeTable turns a wire response back into a table. The bytes are
// untrusted — the frame checksum only proves they arrived as sent — so
// every column is validated against resp.Schema and resp.Rows, and any
// violation is an error: the caller's retry loop sees a failed attempt,
// never a panic and never rows.
func decodeTable(resp Response, name string) (*relal.Table, error) {
	if resp.Rows == 0 {
		return relal.NewTable(name, resp.Schema), nil
	}
	if resp.Rows < 0 || resp.Rows > math.MaxInt32 || len(resp.Schema) == 0 {
		return nil, fmt.Errorf("dist: shard %d response claims %d rows of %d columns", resp.Shard, resp.Rows, len(resp.Schema))
	}
	r := wireReader{b: resp.Data}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) != uint64(len(resp.Schema)) {
		return nil, fmt.Errorf("dist: shard %d response encodes %d columns, schema has %d", resp.Shard, n, len(resp.Schema))
	}
	cols := make([]*relal.Vector, len(resp.Schema))
	for i, c := range resp.Schema {
		if cols[i], err = r.column(c.Type, resp.Rows); err != nil {
			return nil, fmt.Errorf("decode shard %d response, column %q: %w", resp.Shard, c.Name, err)
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("dist: shard %d response has %d trailing bytes", resp.Shard, len(r.b))
	}
	return relal.NewTable(name, resp.Schema, cols...), nil
}
