package ytcdn

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
)

// Paper-scale output digests at the default seed, recorded on the tree
// before the analysis pipeline's sessionizer was reworked. They pin
// what the scale-0.05 goldens cannot see: analysis work that grows
// superlinearly with scale (sessionization, per-record AS lookups) only
// dominates at paper scale, so a change there must prove it leaves the
// paper-scale output untouched.
//
//	experimentsScale100SHA256  stdout of ytcdn-experiments -scale 1.0
//	experimentsScale025SHA256  stdout of ytcdn-experiments -scale 0.25
//	traceScale100SHA256        the file ytcdn-sim -scale 1.0 -o FILE writes
const (
	experimentsScale100SHA256 = "638fba32286075e5f3e5126a6a6f4ef2e1e0cc01c932aeb3ac837e78efd56450"
	experimentsScale025SHA256 = "2805198109670af48bc06c64fded20ca03550d08ab6419d4639a333b3fd8fc4b"
	traceScale100SHA256       = "1720e056923157d93d911452242f222530bac5f3844dcde47ea76a3b9785abdb"
)

// TestPaperScaleDigests checks the three paper-scale digests. It takes
// about a minute and a few hundred MB, so it is opt-in:
//
//	PAPER_SCALE=1 go test -run TestPaperScaleDigests -v .
func TestPaperScaleDigests(t *testing.T) {
	if os.Getenv("PAPER_SCALE") != "1" {
		t.Skip("paper-scale digests are opt-in; set PAPER_SCALE=1")
	}
	week := 7 * 24 * time.Hour
	for _, tc := range []struct {
		name  string
		scale float64
		want  string
	}{
		{"experiments-scale1.0", 1.0, experimentsScale100SHA256},
		{"experiments-scale0.25", 0.25, experimentsScale025SHA256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The CLI defaults: seed 20100904, 7 days, the paper policy.
			study, err := Run(Options{Scale: tc.scale, Span: week})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := study.Experiments().RunAll(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("suite stdout diverged from the pinned digest:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
	t.Run("trace-scale1.0", func(t *testing.T) {
		pol, err := PolicyByName("paper") // the ytcdn-sim default
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		ws := capture.NewWriterSink(h)
		study, err := Run(Options{Scale: 1.0, Span: week, Policy: pol, ExtraSink: ws})
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != traceScale100SHA256 {
			t.Errorf("TSV trace of %d flows diverged from the pinned digest:\n got  %s\n want %s", study.TotalFlows(), got, traceScale100SHA256)
		}
	})
}
