// Package obscli is a stand-in for the command-line wiring of the
// wall-clock plane, which may import the rest of that plane.
package obscli

import (
	"example.com/obsplanefix/internal/obs/obshttp"
	"example.com/obsplanefix/internal/obs/profile"
)

// Start serves metrics and times the run.
func Start() func() {
	_ = obshttp.Serve(":0")
	done := profile.Phase()
	return func() { done() }
}
