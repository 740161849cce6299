package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set
// on end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json. The file is the one place metric names, units
// and bounds are written down; the program reads it instead of keeping
// a second list that could drift.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no metrics or workloads declared", path)
	}
	return &s, nil
}

// defs returns the metric set one run reports: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func (s *spec) defs(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is the wire form of one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measurements by name. Setting a name twice is
// a bug in the benchmark and is remembered until render reports it.
type values struct {
	m    map[string]float64
	dups []string
}

func newValues() *values { return &values{m: make(map[string]float64)} }

func (v *values) set(name string, x float64) {
	if _, ok := v.m[name]; ok {
		v.dups = append(v.dups, name)
	}
	v.m[name] = x
}

// render pairs the measured values with the metrics this run reports.
// Every one of them must have been measured exactly once, and nothing
// may have been measured that BENCHMARK.json does not declare in either
// set: a mismatch between the program and the file is an error, never a
// silently missing number.
func (v *values) render(s *spec, trace bool) (map[string]metricValue, error) {
	if len(v.dups) > 0 {
		return nil, fmt.Errorf("metrics set twice: %v", v.dups)
	}
	out := make(map[string]metricValue)
	for _, d := range s.defs(trace) {
		x, ok := v.m[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	declared := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		declared[d.Name] = true
	}
	var extra []string
	for name := range v.m {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", extra)
	}
	return out, nil
}
