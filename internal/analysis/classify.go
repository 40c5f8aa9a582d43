// Package analysis is the paper's measurement pipeline. It consumes
// only what the authors had: Tstat flow records, active RTT
// measurements, whois lookups, and geolocation estimates. It never
// touches simulator ground truth, so every number it produces is an
// inference that the integration tests then compare against the
// configured mechanisms.
package analysis

import "github.com/ytcdn-sim/ytcdn/internal/capture"

// VideoFlowThreshold is the paper's flow-classification cut: flows
// smaller than 1000 bytes are control flows (signalling, redirects),
// the rest are video flows (§VI-A, Fig 4).
const VideoFlowThreshold int64 = 1000

// IsVideoFlow applies the size heuristic to one record.
func IsVideoFlow(rec capture.FlowRecord) bool {
	return rec.Bytes >= VideoFlowThreshold
}

// TraceSummary aggregates a dataset the way Table I reports it.
type TraceSummary struct {
	Flows   int
	Bytes   int64
	Servers int
	Clients int
}
