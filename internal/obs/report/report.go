// Package report defines the shared end-of-run artifact schema: the
// one JSON shape emitted by ytcdn-sim/ytcdn-experiments -report and by
// the BENCH_*.json benchmark artifacts, so CI tooling parses a single
// format.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// Schema identifies the report JSON shape. Bump on incompatible change.
const Schema = "ytcdn.report/v1"

// Metric is one named measurement. Unit is free-form but should come
// from a small shared vocabulary: "count", "seconds", "bytes",
// "bytes/sec", "events/sec", "ns/op", "ratio".
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is an end-of-run artifact: what ran (Name, Config, Commit)
// and what was measured (Metrics, sorted by name).
type Report struct {
	Schema  string            `json:"schema"`
	Name    string            `json:"name"`
	Commit  string            `json:"commit,omitempty"`
	Config  map[string]string `json:"config"`
	Metrics []Metric          `json:"metrics"`
}

// New returns an empty report for the named run, stamped with the
// build's commit when one is discoverable.
func New(name string) *Report {
	return &Report{
		Schema: Schema,
		Name:   name,
		Commit: Commit(),
		Config: make(map[string]string),
	}
}

// Set records one config key (scale, seed, policy, days, ...).
func (r *Report) Set(key, value string) *Report {
	r.Config[key] = value
	return r
}

// Add appends one metric.
func (r *Report) Add(name string, value float64, unit string) *Report {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
	return r
}

// AddSnapshot flattens a registry snapshot into metrics: counters as
// "count", gauges unitless, histograms expanded to .count/.sum/.min/
// .max/.p50/.p90/.p99. Names arrive sorted so the report is stable.
func (r *Report) AddSnapshot(s obs.Snapshot) *Report {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Add(n, float64(s.Counters[n]), "count")
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Add(n, s.Gauges[n], "")
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		r.Add(n+".count", float64(h.Count), "count")
		r.Add(n+".sum", float64(h.Sum), "")
		r.Add(n+".min", float64(h.Min), "")
		r.Add(n+".max", float64(h.Max), "")
		r.Add(n+".p50", float64(h.P50), "")
		r.Add(n+".p90", float64(h.P90), "")
		r.Add(n+".p99", float64(h.P99), "")
	}
	return r
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *Report) Marshal() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile validates and writes the report to path.
func (r *Report) WriteFile(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return fmt.Errorf("report %q: %w", r.Name, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Validate checks structural invariants: schema, a non-empty name, and
// named metrics.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("report schema %q, want %q", r.Schema, Schema)
	}
	if strings.TrimSpace(r.Name) == "" {
		return fmt.Errorf("report has no name")
	}
	for i, m := range r.Metrics {
		if strings.TrimSpace(m.Name) == "" {
			return fmt.Errorf("report %q: metric %d has no name", r.Name, i)
		}
	}
	return nil
}

// ValidateJSON checks that data parses as a current-schema report.
// CI's artifact-validation step and the report tests share it.
func ValidateJSON(data []byte) error {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if r.Config == nil {
		return fmt.Errorf("report %q has no config section", r.Name)
	}
	return r.Validate()
}

// Commit returns the commit hash the binary was built from: GITHUB_SHA
// when CI sets it, otherwise the vcs.revision baked into build info,
// otherwise "".
func Commit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return ""
}
