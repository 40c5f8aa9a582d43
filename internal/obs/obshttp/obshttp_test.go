package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
)

// scrapeGolden pins the exact /metrics bytes for a fixed registry
// state: schema header, sorted keys, two-space indent, histogram
// summary fields. Regenerate after an intentional schema change with:
//
//	YTCDN_REGEN_GOLDEN=1 go test -run TestMetricsScrapeGolden ./internal/obs/obshttp
const scrapeGolden = "testdata/metrics_scrape.golden"

// fixedRegistry builds the deterministic instrument population the
// golden captures.
func fixedRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("sim.cdn.sessions").Add(12)
	reg.Counter("sim.cdn.chains").Add(34)
	reg.GaugeFunc("sim.selector.flows_active", func() float64 { return 5 })
	reg.GaugeFunc("store.write.bytes", func() float64 { return 4096 })
	h := reg.Histogram("sim.cdn.chain_depth_hops")
	for _, v := range []int64{1, 1, 2, 3} {
		h.Observe(v)
	}
	return reg
}

func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestMetricsScrapeGolden(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fixedRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := scrape(t, "http://"+srv.Addr()+"/metrics")
	if err := obs.ValidateSnapshotJSON(got); err != nil {
		t.Fatalf("scrape failed snapshot validation: %v", err)
	}

	if os.Getenv("YTCDN_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(scrapeGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", scrapeGolden, len(got))
		return
	}
	want, err := os.ReadFile(scrapeGolden)
	if err != nil {
		t.Fatalf("golden missing (run with YTCDN_REGEN_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsScrapeLive: the endpoint reports current values, not the
// state at Serve time.
func TestMetricsScrapeLive(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("live.count")
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	read := func() int64 {
		var s struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(scrape(t, "http://"+srv.Addr()+"/metrics"), &s); err != nil {
			t.Fatal(err)
		}
		return s.Counters["live.count"]
	}
	if got := read(); got != 0 {
		t.Errorf("initial scrape = %d, want 0", got)
	}
	c.Add(17)
	if got := read(); got != 17 {
		t.Errorf("post-increment scrape = %d, want 17", got)
	}
}

func TestDebugVarsAndPprofServe(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", fixedRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vars := scrape(t, "http://"+srv.Addr()+"/debug/vars")
	var published map[string]json.RawMessage
	if err := json.Unmarshal(vars, &published); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	snap, ok := published["ytcdn"]
	if !ok {
		t.Fatal("/debug/vars has no \"ytcdn\" var")
	}
	if err := obs.ValidateSnapshotJSON(snap); err != nil {
		t.Errorf("expvar ytcdn snapshot invalid: %v", err)
	}

	if body := scrape(t, "http://"+srv.Addr()+"/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline returned empty body")
	}
}
