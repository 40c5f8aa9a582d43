package analysis

import (
	"bytes"
	"sort"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// PrefMask reports, per flow of a session, whether it went to the
// preferred data center.
func PrefMask(s Session, m *DCMap, preferred int) []bool {
	mask := make([]bool, len(s.Flows))
	for i, f := range s.Flows {
		dc, ok := m.DCOf(f.Server)
		mask[i] = ok && dc == preferred
	}
	return mask
}

// SingleFlowBreakdown is Fig 10a: among all sessions, the fraction
// consisting of exactly one flow that went to the preferred /
// non-preferred data center.
type SingleFlowBreakdown struct {
	Preferred    float64
	NonPreferred float64
}

// TwoFlowBreakdown is Fig 10b: among all sessions, the fraction of
// two-flow sessions per (first, second) preferred pattern.
type TwoFlowBreakdown struct {
	PrefPref       float64
	PrefNonPref    float64
	NonPrefPref    float64
	NonPrefNonPref float64
}

// SessionTally accumulates per-session aggregates: the
// flows-per-session histogram (Figs 5/6) and the 1-/2-flow
// preferred-pattern breakdown (Figs 10a/10b).
// Feed it one session at a time — e.g. as the emit callback of
// StreamSessions — so a trace's sessions never need to exist at once;
// SessionTalliesIter fills one histogram-only tally per gap without
// building sessions at all.
// All internal state is integer counts, making the results independent
// of the order sessions are added in (stream emission order differs
// between storage backends).
type SessionTally struct {
	n    int
	hist []int // flows-per-session counts; last bucket aggregates the tail
	one  [2]int
	two  [4]int
}

// NewSessionTally sizes the histogram (maxBucket <= 0 disables it;
// the breakdown is always tallied). m may be nil in Add when only the
// histogram is wanted.
func NewSessionTally(maxBucket int) *SessionTally {
	t := &SessionTally{}
	if maxBucket > 0 {
		t.hist = make([]int, maxBucket)
	}
	return t
}

// Add tallies one session. m may be nil when the caller only needs the
// histogram (the preferred-pattern breakdown is skipped).
func (t *SessionTally) Add(s Session, m *DCMap, preferred int) {
	t.count(len(s.Flows))
	if m == nil {
		return
	}
	mask := PrefMask(s, m, preferred)
	switch len(s.Flows) {
	case 1:
		if mask[0] {
			t.one[0]++
		} else {
			t.one[1]++
		}
	case 2:
		switch {
		case mask[0] && mask[1]:
			t.two[0]++
		case mask[0] && !mask[1]:
			t.two[1]++
		case !mask[0] && mask[1]:
			t.two[2]++
		default:
			t.two[3]++
		}
	}
}

// count tallies one session of the given flow count into the
// histogram alone.
func (t *SessionTally) count(flows int) {
	t.n++
	if t.hist != nil {
		t.hist[min(flows, len(t.hist))-1]++
	}
}

// Sessions returns how many sessions were tallied.
func (t *SessionTally) Sessions() int { return t.n }

// Histogram returns the flows-per-session fractions: index i is the
// fraction of sessions with i+1 flows, the last bucket aggregating
// everything at or beyond it (the paper's ">9" bucket with
// maxBucket=10).
func (t *SessionTally) Histogram() []float64 {
	out := make([]float64, len(t.hist))
	if t.n == 0 {
		return out
	}
	for i, c := range t.hist {
		out[i] = float64(c) / float64(t.n)
	}
	return out
}

// Breakdown returns the Fig 10a/10b fractions.
func (t *SessionTally) Breakdown() (SingleFlowBreakdown, TwoFlowBreakdown) {
	var one SingleFlowBreakdown
	var two TwoFlowBreakdown
	if t.n == 0 {
		return one, two
	}
	n := float64(t.n)
	one.Preferred = float64(t.one[0]) / n
	one.NonPreferred = float64(t.one[1]) / n
	two.PrefPref = float64(t.two[0]) / n
	two.PrefNonPref = float64(t.two[1]) / n
	two.NonPrefPref = float64(t.two[2]) / n
	two.NonPrefNonPref = float64(t.two[3]) / n
	return one, two
}

// HourlyNonPreferredIter computes the per-hour fraction of video flows
// served by non-preferred data centers (Figs 9 and 11) in one pass
// over the iterator, with memory bounded by the hourly bins. Flows
// outside any known cluster are ignored, mirroring the paper's
// Google-AS filter. It returns the per-bin fractions (only bins with
// traffic) plus the total and non-preferred hourly counts.
func HourlyNonPreferredIter(it capture.Iterator, m *DCMap, preferred int, span time.Duration) (fracs []float64, all, nonPref *stats.TimeBins, err error) {
	if span < time.Hour {
		span = time.Hour
	}
	all = stats.NewTimeBins(span, time.Hour)
	nonPref = stats.NewTimeBins(span, time.Hour)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		dc, ok := m.DCOf(r.Server)
		if !ok {
			continue
		}
		all.Incr(r.Start)
		if dc != preferred {
			nonPref.Incr(r.Start)
		}
	}
	vals, mask := stats.Ratio(nonPref, all)
	for i, v := range vals {
		if mask[i] {
			fracs = append(fracs, v)
		}
	}
	return fracs, all, nonPref, it.Err()
}

// SubnetShare is one bar pair of Fig 12.
type SubnetShare struct {
	Name string
	// AllFrac is the subnet's share of all video flows.
	AllFrac float64
	// NonPrefFrac is the subnet's share of video flows that went to
	// non-preferred data centers.
	NonPrefFrac float64
}

// NamedPrefix labels a client subnet for Fig 12.
type NamedPrefix struct {
	Name   string
	Prefix ipnet.Prefix
}

// BySubnetIter attributes video flows and non-preferred video flows to
// client subnets (Fig 12) in one pass, with memory bounded by the
// subnet list.
func BySubnetIter(it capture.Iterator, m *DCMap, preferred int, subnets []NamedPrefix) ([]SubnetShare, error) {
	all := make([]float64, len(subnets))
	nonPref := make([]float64, len(subnets))
	var totAll, totNon float64
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		dc, ok := m.DCOf(r.Server)
		if !ok {
			continue
		}
		idx := -1
		for i, sn := range subnets {
			if sn.Prefix.Contains(r.Client) {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		all[idx]++
		totAll++
		if dc != preferred {
			nonPref[idx]++
			totNon++
		}
	}
	out := make([]SubnetShare, len(subnets))
	for i, sn := range subnets {
		out[i].Name = sn.Name
		if totAll > 0 {
			out[i].AllFrac = all[i] / totAll
		}
		if totNon > 0 {
			out[i].NonPrefFrac = nonPref[i] / totNon
		}
	}
	return out, it.Err()
}

// VideoNonPrefCount pairs a video with how many of its video flows
// were served from non-preferred data centers.
type VideoNonPrefCount struct {
	VideoID capture.VideoID
	Count   int
	Total   int
}

// NonPreferredPerVideoIter counts, per video, the video flows served
// from non-preferred DCs (Fig 13's distribution; its top entries feed
// Fig 14) in one pass, with memory bounded by the distinct-video set.
// Only videos with at least one non-preferred access are returned,
// sorted by decreasing count then VideoID.
func NonPreferredPerVideoIter(it capture.Iterator, m *DCMap, preferred int) ([]VideoNonPrefCount, error) {
	nonPref := make(map[capture.VideoID]int)
	total := make(map[capture.VideoID]int)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		dc, ok := m.DCOf(r.Server)
		if !ok {
			continue
		}
		total[r.VideoID]++
		if dc != preferred {
			nonPref[r.VideoID]++
		}
	}
	out := make([]VideoNonPrefCount, 0, len(nonPref))
	for id, c := range nonPref {
		out = append(out, VideoNonPrefCount{VideoID: id, Count: c, Total: total[id]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return bytes.Compare(out[i].VideoID[:], out[j].VideoID[:]) < 0
	})
	return out, it.Err()
}

// VideoHourlySeriesIter returns the hourly request series of one
// video: all accesses and non-preferred accesses (one panel of
// Fig 14).
func VideoHourlySeriesIter(it capture.Iterator, m *DCMap, preferred int, videoID capture.VideoID, span time.Duration) (all, nonPref *stats.TimeBins, err error) {
	if span < time.Hour {
		span = time.Hour
	}
	all = stats.NewTimeBins(span, time.Hour)
	nonPref = stats.NewTimeBins(span, time.Hour)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.VideoID != videoID {
			continue
		}
		dc, ok := m.DCOf(r.Server)
		if !ok {
			continue
		}
		all.Incr(r.Start)
		if dc != preferred {
			nonPref.Incr(r.Start)
		}
	}
	return all, nonPref, it.Err()
}

// ServerLoadStatsIter returns, per hour, the average and maximum number
// of video flows handled by servers of the preferred data center
// (Fig 15). Memory is bounded by (preferred-DC servers × hourly bins).
func ServerLoadStatsIter(it capture.Iterator, m *DCMap, preferred int, span time.Duration) (avg, max []float64, err error) {
	if span < time.Hour {
		span = time.Hour
	}
	nBins := int(span / time.Hour)
	if span%time.Hour != 0 {
		nBins++
	}
	perServer := make(map[ipnet.Addr][]float64)
	serverCount := len(m.Cluster(preferred).Servers)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		dc, ok := m.DCOf(r.Server)
		if !ok || dc != preferred {
			continue
		}
		bins, ok := perServer[r.Server]
		if !ok {
			bins = make([]float64, nBins)
			perServer[r.Server] = bins
		}
		idx := int(r.Start / time.Hour)
		if idx < 0 {
			idx = 0
		}
		if idx >= nBins {
			idx = nBins - 1
		}
		bins[idx]++
	}
	avg = make([]float64, nBins)
	max = make([]float64, nBins)
	for _, bins := range perServer {
		for i, v := range bins {
			avg[i] += v
			if v > max[i] {
				max[i] = v
			}
		}
	}
	if serverCount > 0 {
		for i := range avg {
			avg[i] /= float64(serverCount)
		}
	}
	return avg, max, it.Err()
}

// ServerSessionPattern classifies the sessions that touch a given
// server by their preferred pattern (Fig 16).
type ServerSessionPattern struct {
	AllPreferred  *stats.TimeBins // every flow to the preferred DC
	FirstPrefOnly *stats.TimeBins // first flow preferred, later ones not
	Others        *stats.TimeBins
}

// NewServerSessionPattern returns an empty pattern accumulator for the
// given span; feed sessions through Add (e.g. from StreamSessions).
func NewServerSessionPattern(span time.Duration) ServerSessionPattern {
	if span < time.Hour {
		span = time.Hour
	}
	return ServerSessionPattern{
		AllPreferred:  stats.NewTimeBins(span, time.Hour),
		FirstPrefOnly: stats.NewTimeBins(span, time.Hour),
		Others:        stats.NewTimeBins(span, time.Hour),
	}
}

// Add classifies one session if it touches the server, binning it by
// its preferred pattern.
func (p ServerSessionPattern) Add(s Session, m *DCMap, preferred int, server ipnet.Addr) {
	touches := false
	for _, f := range s.Flows {
		if f.Server == server {
			touches = true
			break
		}
	}
	if !touches {
		return
	}
	mask := PrefMask(s, m, preferred)
	allPref := true
	for _, pr := range mask {
		if !pr {
			allPref = false
			break
		}
	}
	switch {
	case allPref:
		p.AllPreferred.Incr(s.Start())
	case mask[0] && len(mask) > 1:
		p.FirstPrefOnly.Incr(s.Start())
	default:
		p.Others.Incr(s.Start())
	}
}
