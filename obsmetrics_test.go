package ytcdn

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/obs/obshttp"
	"github.com/ytcdn-sim/ytcdn/internal/obs/profile"
	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// TestMetricsZeroPerturbation is the acceptance gate of the
// observability layer: the same study with metrics enabled renders
// byte-identically to the pre-observability golden. If an instrument
// ever draws randomness, reads the wall clock into simulated state, or
// reorders events, this diverges.
func TestMetricsZeroPerturbation(t *testing.T) {
	reg := obs.NewRegistry()
	got := parityRender(t, Options{Scale: 0.05, Span: 7 * 24 * time.Hour, Metrics: reg})

	want, err := os.ReadFile(policyParityGolden)
	if err != nil {
		t.Fatalf("golden missing: %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics-enabled run diverged from the metrics-free golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The run actually recorded: the registry must hold the core
	// instrument population, not an accidentally-disconnected one.
	snap := reg.Snapshot()
	for _, name := range []string{"sim.cdn.sessions", "sim.cdn.flows", "sim.cdn.chains", "sim.workload.arrivals"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s is 0 after a full run — instrumentation disconnected?", name)
		}
	}
}

// TestMetricsMatchStudy pins instrument values against the study's own
// ground truth: the counters are the same facts, counted a second way.
func TestMetricsMatchStudy(t *testing.T) {
	reg := obs.NewRegistry()
	study, err := Run(Options{
		Scale: 0.02, Span: 3 * 24 * time.Hour, Seed: 11, Metrics: reg,
		Store: &StoreOptions{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.cdn.sessions"]; got != int64(study.Sessions) {
		t.Errorf("sim.cdn.sessions = %d, study.Sessions = %d", got, study.Sessions)
	}
	if got := snap.Counters["sim.cdn.flows"]; got != int64(study.TotalFlows()) {
		t.Errorf("sim.cdn.flows = %d, study.TotalFlows() = %d", got, study.TotalFlows())
	}
	if got := snap.Counters["sim.cdn.chains"]; got != int64(study.Selection.Chains) {
		t.Errorf("sim.cdn.chains = %d, study.Selection.Chains = %d", got, study.Selection.Chains)
	}
	hist := snap.Histograms["sim.cdn.chain_depth_hops"]
	if hist.Count != int64(study.Selection.Chains) {
		t.Errorf("chain_depth histogram count = %d, chains = %d", hist.Count, study.Selection.Chains)
	}
	if snap.Histograms["sim.cdn.chain_latency_us"].Count != int64(study.Selection.Chains) {
		t.Errorf("chain_latency histogram count = %d, chains = %d",
			snap.Histograms["sim.cdn.chain_latency_us"].Count, study.Selection.Chains)
	}
	if got := snap.Gauges["sim.des.events"]; got <= 0 {
		t.Errorf("sim.des.events = %v, want > 0", got)
	}
	if got := snap.Gauges["store.write.records"]; int64(got) != int64(study.TotalFlows()) {
		t.Errorf("store.write.records = %v, study.TotalFlows() = %d", got, study.TotalFlows())
	}
}

// TestMetricsDeterministic: two identical runs publish byte-identical
// metric snapshots — the metrics themselves are part of the
// deterministic surface, so a report diff between two CI runs of the
// same commit is meaningful.
func TestMetricsDeterministic(t *testing.T) {
	run := func() []byte {
		reg := obs.NewRegistry()
		if _, err := Run(Options{Scale: 0.02, Span: 3 * 24 * time.Hour, Seed: 11, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("identical runs produced different metric snapshots\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	// The snapshot also feeds the -report artifact; the flattened
	// report must validate under the shared schema.
	rep := report.New("determinism-test").Set("scale", "0.02")
	var snap obs.Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	data, err := rep.AddSnapshot(snap).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.ValidateJSON(data); err != nil {
		t.Errorf("flattened run report failed validation: %v", err)
	}
}

// TestMetricsLiveScrape serves /metrics while a run is in flight and
// scrapes it continuously: every scrape must be valid snapshot JSON,
// every scrape taken once sessions are running must carry the engine's
// live gauges, and neither sim.cdn.sessions nor sim.des.events may
// decrease across scrapes. The store case also reads the trace store
// writer's gauges while it records: store.write.records may never
// decrease, and it must end equal to the study's flow count. Run under
// -race in CI this is the scrape-during-run data race exercise for the
// whole deterministic plane.
func TestMetricsLiveScrape(t *testing.T) {
	t.Run("memory", func(t *testing.T) { liveScrape(t, nil) })
	t.Run("store", func(t *testing.T) { liveScrape(t, &StoreOptions{Dir: t.TempDir()}) })
}

func liveScrape(t *testing.T, store *StoreOptions) {
	reg := obs.NewRegistry()
	srv, err := obshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/metrics"

	type result struct {
		study *Study
		err   error
	}
	done := make(chan result, 1)
	go func() {
		study, err := Run(Options{
			Scale: 0.05, Span: 7 * 24 * time.Hour, Seed: 3,
			Metrics: reg, Store: store,
		})
		done <- result{study, err}
	}()

	var scrapes, live int
	var lastSessions int64
	var lastEvents, lastStored float64
	scrape := func() {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		if err := obs.ValidateSnapshotJSON(body); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", scrapes, err, body)
		}
		var s struct {
			Counters map[string]int64   `json:"counters"`
			Gauges   map[string]float64 `json:"gauges"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		sessions := s.Counters["sim.cdn.sessions"]
		if sessions < lastSessions {
			t.Fatalf("scrape %d: sim.cdn.sessions went backwards: %d -> %d", scrapes, lastSessions, sessions)
		}
		lastSessions = sessions
		// Sessions run inside engine events, and the engine is
		// instrumented before it runs its first event.
		if sessions > 0 {
			live++
			for _, name := range []string{"sim.des.events", "sim.des.queue_depth", "sim.des.now_seconds"} {
				if _, ok := s.Gauges[name]; !ok {
					t.Fatalf("scrape %d: gauge %s missing with %d sessions run", scrapes, name, sessions)
				}
			}
		}
		events := s.Gauges["sim.des.events"]
		if events < lastEvents {
			t.Fatalf("scrape %d: sim.des.events went backwards: %v -> %v", scrapes, lastEvents, events)
		}
		lastEvents = events
		if store != nil {
			// The writer is instrumented before the engine runs.
			stored, ok := s.Gauges["store.write.records"]
			if !ok && sessions > 0 {
				t.Fatalf("scrape %d: gauge store.write.records missing with %d sessions run", scrapes, sessions)
			}
			if stored < lastStored {
				t.Fatalf("scrape %d: store.write.records went backwards: %v -> %v", scrapes, lastStored, stored)
			}
			lastStored = stored
		}
		scrapes++
	}
	for {
		select {
		case res := <-done:
			if res.err != nil {
				t.Fatal(res.err)
			}
			// One more scrape of the finished run, which must carry the
			// gauges and the final event count.
			scrape()
			if lastSessions == 0 || lastEvents == 0 {
				t.Errorf("finished run: sim.cdn.sessions %d, sim.des.events %v; want both > 0", lastSessions, lastEvents)
			}
			if flows := res.study.TotalFlows(); store != nil && int(lastStored) != flows {
				t.Errorf("finished run: store.write.records = %v, TotalFlows() = %d", lastStored, flows)
			}
			t.Logf("%d scrapes (%d after sessions started), final sim.cdn.sessions=%d, sim.des.events=%v, store.write.records=%v",
				scrapes, live, lastSessions, lastEvents, lastStored)
			return
		default:
		}
		scrape()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestNoGoroutineOutlivesRun checks that every goroutine the program
// starts is joined, on the code that actually runs: the /metrics
// listener and the progress ticker of one registry, the RunMany
// fan-out, and the harness's par.ForEach workers (CBG sweep, ping
// campaigns, per-dataset pipelines) under a profiler at
// Parallelism 4. Once the ticker is stopped and the server closed, the
// goroutine count must fall back to where it started.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	srv, err := obshttp.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	stopProgress := profile.StartProgress(io.Discard, reg, time.Millisecond)

	opts := Options{
		Scale: 0.002, Span: 2 * 24 * time.Hour, Parallelism: 4,
		Metrics: reg, Profiler: profile.NewProfiler(reg),
	}
	studies, err := RunMany(Replicates(opts, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := studies[0].Experiments().RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSnapshotJSON(body); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"localization", "probing", "analysis"} {
		if snap.Counters["wall.phase."+phase+".calls"] == 0 {
			t.Errorf("phase %s never ran", phase)
		}
	}

	stopProgress()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines outlive the run, %d before it:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
