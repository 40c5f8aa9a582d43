// Package cdn is a deterministic-plane stand-in that reaches the
// wall-clock plane through an import — the route obsplane closes.
package cdn

import (
	"example.com/obsplanefix/internal/obs/obshttp" // want "import of example.com/obsplanefix/internal/obs/obshttp on the deterministic plane"
	"example.com/obsplanefix/internal/obs/profile" // want "import of example.com/obsplanefix/internal/obs/profile on the deterministic plane"
)

// Simulate would acquire a clock via the profiler.
func Simulate() {
	done := profile.Phase()
	defer done()
	_ = obshttp.Serve(":0")
}
