package ytcdn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/core"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// The full-suite goldens pin every table and figure of the paper at
// Scale 0.05 — including the CBG-dependent Table III and Figs 2–3, 7–8
// and 17–18 that testdata/policy_parity_scale005.golden does not cover
// — plus every located server's CBG region to the bit. A change to
// geolocation, probing or analysis that moves a published number, or
// a single centroid by one ulp, fails TestSuiteGolden.
//
// suiteGolden is exactly the stdout of
//
//	ytcdn-experiments -scale 0.05
//
// Regenerate (only when an intentional output change lands) with:
//
//	YTCDN_REGEN_GOLDEN=1 go test -run TestSuiteGolden .
const (
	suiteGolden      = "testdata/suite_scale005.golden"
	cbgRegionsGolden = "testdata/cbg_regions_scale005.golden"
)

// renderCBGRegions lists one line per located server, sorted by
// address: the address, the IEEE-754 bits of the centroid latitude,
// longitude and confidence radius, and the feasibility flag.
func renderCBGRegions(t *testing.T, study *Study) string {
	t.Helper()
	regions, err := study.Experiments().Geolocate()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]ipnet.Addr, 0, len(regions))
	for a := range regions {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out bytes.Buffer
	for _, a := range addrs {
		r := regions[a]
		fmt.Fprintf(&out, "%s %016x %016x %016x %t\n", a,
			math.Float64bits(r.Centroid.Lat), math.Float64bits(r.Centroid.Lon),
			math.Float64bits(r.RadiusKm), r.Feasible)
	}
	return out.String()
}

func TestSuiteGolden(t *testing.T) {
	// The CLI defaults: seed 20100904, 7 days, the paper policy.
	study, err := Run(Options{Scale: 0.05, Span: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var suite bytes.Buffer
	if err := study.Experiments().RunAll(&suite); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		suiteGolden:      suite.String(),
		cbgRegionsGolden: renderCBGRegions(t, study),
	}

	if os.Getenv("YTCDN_REGEN_GOLDEN") != "" {
		for _, path := range []string{suiteGolden, cbgRegionsGolden} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got[path]), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", path, len(got[path]))
		}
		return
	}

	for _, path := range []string{suiteGolden, cbgRegionsGolden} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden missing (run with YTCDN_REGEN_GOLDEN=1 to create): %v", err)
		}
		if got[path] != string(want) {
			t.Errorf("%s: output diverged from the pinned golden\n%s", path, firstDiff(got[path], string(want)))
		}
	}
}

// traceTSVSHA256 is the sha256 of the complete WriterSink output of a
// default-seed, scale-0.05, 2-day run — exactly the file
//
//	ytcdn-sim -scale 0.05 -days 2 -o FILE
//
// writes. It pins the TSV encoder byte for byte over every record of a
// whole trace, in emission order, where the capture fuzz targets check
// one line at a time. After an intentional change to the trace format
// or to the simulated flows, replace it with the digest the failure
// reports.
const traceTSVSHA256 = "2eed060a1c4fa5e94706033e9abd2710e6e3efd87a63772a29b69fbd628015d2"

func TestTraceTSVGolden(t *testing.T) {
	pol, err := PolicyByName("paper") // the ytcdn-sim default
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ws := capture.NewWriterSink(h)
	study, err := Run(Options{Scale: 0.05, Span: 2 * 24 * time.Hour, Policy: pol, ExtraSink: ws})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != traceTSVSHA256 {
		t.Errorf("TSV trace of %d flows diverged from the pinned digest:\n got  %s\n want %s", study.TotalFlows(), got, traceTSVSHA256)
	}
}

// TestPolicySwitchTraceGolden pins the complete TSV trace of runs that
// swap the selection policy mid-span, at the default seed and starting
// policy. A switch must run after every event strictly before At and
// before any event at or after it; these digests were recorded with the
// switch done that way, so a change to when the swap lands relative to
// the event queue, or to what carries across it, fails here.
func TestPolicySwitchTraceGolden(t *testing.T) {
	cases := []struct {
		name string
		at   time.Duration
		to   core.SelectionPolicy
		span time.Duration
		sha  string
	}{
		{"least-loaded at 24h", 24 * time.Hour, &core.LeastLoadedDC{}, 2 * 24 * time.Hour,
			"bb652bac0d768c80c77258c6eea8b5bc5e42873743fea8cb874d3bd134c28638"},
		{"proximity at 36h17m3s", 36*time.Hour + 17*time.Minute + 3*time.Second, core.ProximityOnly{}, 3 * 24 * time.Hour,
			"911f592d084d8e762b84bef4f9cc2730fd4ae4d637eb9867ccb180f9c67d1f3a"},
		{"client race at 0", 0, &core.ClientRace{K: 2}, 2 * 24 * time.Hour,
			"bf815008b7db09d910cb2e41d4378a352cab24d3c002c4c6cd72bd31e333fa46"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			ws := capture.NewWriterSink(h)
			study, err := Run(Options{Scale: 0.05, Span: tc.span, ExtraSink: ws,
				PolicySwitch: &PolicySwitch{At: tc.at, To: tc.to}})
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
				t.Errorf("TSV trace of %d flows diverged from the pinned digest:\n got  %s\n want %s", study.TotalFlows(), got, tc.sha)
			}
		})
	}
}

// firstDiff reports the first differing line of two renders, so a
// multi-kilobyte golden mismatch stays readable.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return "renders differ only in length"
}
