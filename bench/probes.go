package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"elephants/internal/delta"
	"elephants/internal/dist"
	"elephants/internal/docstore"
	"elephants/internal/rcfile"
	"elephants/internal/relal"
)

// probeFor is how long each layer probe repeats its call. The probes
// time one layer alone, on the run's own data, so that a change to that
// layer has a number that does not depend on what else the workload
// does. A workload runs only the probes of layers it uses; the others
// report 0.
const probeFor = 300 * time.Millisecond

// probe repeats fn for probeFor and returns the median seconds per call.
func probe(fn func() error) (float64, error) {
	var secs []float64
	for start := time.Now(); time.Since(start) < probeFor; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// runProbes measures the six layer probes. A probe that fails is
// reported on standard error and as 0: it is a measurement of one
// layer, not an operation of the workload.
func runProbes(e *env, logData []byte, v *values) {
	set := func(name string, applies bool, fn func() (float64, error)) {
		x := 0.0
		if applies {
			var err error
			if x, err = fn(); err != nil {
				fmt.Fprintf(os.Stderr, "probe %s: %v\n", name, err)
				x = 0
			}
		}
		v.set(name, x)
	}
	usesRCFile := e.rcfBytes > 0 || e.coord != nil
	stitches := len(e.hold) > 0 || e.coord != nil
	li := e.db.Lineitem

	var encoded []byte
	set("rcfile.encode_mb_s", usesRCFile, func() (float64, error) {
		sec, err := probe(func() (err error) {
			encoded, err = rcfile.NewWriter(groupRows).Write(li)
			return err
		})
		return ratio(float64(len(encoded))/(1<<20), sec), err
	})
	set("rcfile.decode_mb_s", usesRCFile, func() (float64, error) {
		sec, err := probe(func() error {
			_, _, err := rcfile.ReadCols(encoded, li.Schema, li.Name, nil, nil)
			return err
		})
		return ratio(float64(len(encoded))/(1<<20), sec), err
	})
	set("relal.concat_ms", stitches, func() (float64, error) {
		parts, err := stitchShapes(li)
		if err != nil {
			return 0, err
		}
		sec, err := probe(func() error {
			relal.Concat(li.Name, li.Schema, parts...)
			return nil
		})
		return sec * 1e3, err
	})
	set("delta.replay_frames_s", len(logData) > 0, func() (float64, error) {
		frames := 0
		sec, err := probe(func() error {
			recs, _ := delta.Replay(logData)
			frames = len(recs)
			return nil
		})
		return ratio(float64(frames), sec), err
	})
	set("docstore.unmarshal_us", len(e.ops) > 0, func() (float64, error) {
		sec, err := probe(func() error {
			for _, op := range e.ops {
				if _, err := docstore.Unmarshal(op.bson); err != nil {
					return err
				}
			}
			return nil
		})
		return sec * 1e6 / float64(len(e.ops)), err
	})
	set("dist.wire_mb_s", e.coord != nil, func() (float64, error) {
		resp := dist.Response{Schema: li.Schema, Rows: li.NumRows(), Data: encoded}
		wire := 0
		sec, err := probe(func() error {
			payload, err := dist.EncodeResponse(resp)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := dist.WriteFrame(&buf, payload); err != nil {
				return err
			}
			wire = buf.Len()
			got, err := dist.ReadFrame(&buf)
			if err != nil {
				return err
			}
			_, err = dist.DecodeResponse(got)
			return err
		})
		return ratio(float64(wire)/(1<<20), sec), err
	})
}

// stitchShapes builds the table shapes an HTAP scan concatenates: a
// large base part and ten converted parts, each decoded from its own
// RCFile with its own dictionaries, and a short in-memory tail.
func stitchShapes(li *relal.Table) ([]*relal.Table, error) {
	decode := func(rows int) (*relal.Table, error) {
		src, err := rcfile.NewSource(relal.Head(li, rows), groupRows)
		if err != nil {
			return nil, err
		}
		t, _, err := src.TryScan(nil, nil)
		return t, err
	}
	base, err := decode(li.NumRows() - 10*convertRows)
	if err != nil {
		return nil, err
	}
	part, err := decode(convertRows)
	if err != nil {
		return nil, err
	}
	shapes := []*relal.Table{base}
	for i := 0; i < 10; i++ {
		shapes = append(shapes, part)
	}
	return append(shapes, relal.Head(li, convertRows/2)), nil
}
