package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

func TestReportRoundTrip(t *testing.T) {
	rep := New("unit-test").
		Set("scale", "0.05").
		Add("sim.cdn.sessions", 42, "count").
		Add("wall_seconds", 1.5, "seconds")
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(data); err != nil {
		t.Errorf("marshalled report failed validation: %v", err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("marshalled report lacks trailing newline")
	}
}

func TestReportWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rep := New("write-test").Set("seed", "1").Add("m", 1, "count")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(data); err != nil {
		t.Errorf("written report failed validation: %v", err)
	}
}

func TestReportValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		rep  *Report
		want string
	}{
		{"wrong schema", &Report{Schema: "other", Name: "x"}, "schema"},
		{"no name", &Report{Schema: Schema, Name: "  "}, "no name"},
		{"unnamed metric", &Report{Schema: Schema, Name: "x",
			Metrics: []Metric{{Name: "", Value: 1}}}, "metric 0 has no name"},
	}
	for _, c := range cases {
		err := c.rep.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestValidateJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", "nope"},
		{"no config", `{"schema":"ytcdn.report/v1","name":"x","metrics":[]}`},
		{"wrong schema", `{"schema":"v0","name":"x","config":{},"metrics":[]}`},
	}
	for _, c := range cases {
		if err := ValidateJSON([]byte(c.data)); err == nil {
			t.Errorf("%s: validated but should not", c.name)
		}
	}
}

// TestAddSnapshotFlattens pins the snapshot-to-report flattening:
// sorted names, counters with unit "count", histograms expanded into
// their seven summary fields.
func TestAddSnapshotFlattens(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.GaugeFunc("g", func() float64 { return 9 })
	reg.Histogram("h").Observe(5)

	rep := New("flatten").AddSnapshot(reg.Snapshot())
	byName := make(map[string]Metric, len(rep.Metrics))
	for _, m := range rep.Metrics {
		byName[m.Name] = m
	}
	if m := byName["a.count"]; m.Value != 1 || m.Unit != "count" {
		t.Errorf("a.count = %+v, want value 1 unit count", m)
	}
	if m := byName["g"]; m.Value != 9 {
		t.Errorf("g = %+v, want value 9", m)
	}
	for _, suffix := range []string{".count", ".sum", ".min", ".max", ".p50", ".p90", ".p99"} {
		if _, ok := byName["h"+suffix]; !ok {
			t.Errorf("histogram field h%s missing from flattened report", suffix)
		}
	}
	if byName["h.count"].Value != 1 || byName["h.sum"].Value != 5 || byName["h.max"].Value != 5 {
		t.Errorf("histogram h flattened wrong: count=%v sum=%v max=%v",
			byName["h.count"].Value, byName["h.sum"].Value, byName["h.max"].Value)
	}
	// Counters arrive sorted: a.count before b.count.
	var ai, bi int
	for i, m := range rep.Metrics {
		switch m.Name {
		case "a.count":
			ai = i
		case "b.count":
			bi = i
		}
	}
	if ai > bi {
		t.Errorf("counters not sorted: a.count at %d, b.count at %d", ai, bi)
	}
}
