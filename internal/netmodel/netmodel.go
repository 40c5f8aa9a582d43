// Package netmodel is the Internet latency substrate of the simulator.
// It computes round-trip times between network endpoints from first
// principles: great-circle propagation at the speed of light in fiber,
// a deterministic per-path inflation factor (routes are not geodesics),
// per-endpoint access-technology delay, an optional routing detour
// through a peering gateway, and per-sample queueing jitter.
//
// Two properties matter for reproducing the paper:
//
//  1. RTT correlates with distance but is not determined by it. The
//     US-Campus vantage point reaches geographically close data centers
//     through a distant peering point, so its lowest-RTT data center is
//     not its closest (paper, Fig. 8).
//  2. The *minimum* RTT over repeated probes converges to a stable,
//     deterministic base value, which is what delay-based geolocation
//     (CBG) and the paper's ping campaigns rely on.
package netmodel

import (
	"hash/fnv"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// AccessTech describes the last-mile technology of an endpoint and
// determines its fixed access delay. The values mirror the paper's
// vantage points (campus, ADSL, FTTH) plus data-center and backbone
// (landmark) attachment.
type AccessTech int

// Access technologies, starting at 1 so the zero value is invalid.
const (
	AccessUnknown AccessTech = iota
	AccessCampus
	AccessADSL
	AccessFTTH
	AccessDataCenter
	AccessBackbone
)

var accessNames = map[AccessTech]string{
	AccessUnknown:    "unknown",
	AccessCampus:     "campus",
	AccessADSL:       "adsl",
	AccessFTTH:       "ftth",
	AccessDataCenter: "datacenter",
	AccessBackbone:   "backbone",
}

// String implements fmt.Stringer.
func (a AccessTech) String() string {
	if s, ok := accessNames[a]; ok {
		return s
	}
	return "invalid"
}

// oneWayAccessDelay returns the one-way last-mile delay contributed by
// an endpoint with this access technology. ADSL interleaving dominates
// everything else, which is why the paper's EU1-ADSL RTT curves sit
// ~15 ms right of EU1-FTTH (Fig. 2).
func (a AccessTech) oneWayAccessDelay() time.Duration {
	switch a {
	case AccessCampus:
		return 500 * time.Microsecond
	case AccessADSL:
		return 8 * time.Millisecond
	case AccessFTTH:
		return 800 * time.Microsecond
	case AccessDataCenter:
		return 150 * time.Microsecond
	case AccessBackbone:
		return 300 * time.Microsecond
	default:
		return 2 * time.Millisecond
	}
}

// Endpoint is anything with a network position: a client pool, a
// content server, a DNS server, or a measurement landmark.
type Endpoint struct {
	// ID must be stable and unique; the per-path inflation factor is
	// derived from the unordered ID pair so that RTTs are symmetric
	// and reproducible.
	ID string
	// Loc is the geographic position.
	Loc geo.Point
	// Access is the last-mile technology.
	Access AccessTech
	// Gateway, when non-nil, is a peering point all wide-area traffic
	// of this endpoint detours through (e.g. a campus ISP handing off
	// at a distant IXP). The effective path length becomes
	// Loc→Gateway→destination.
	Gateway *geo.Point
}

// Config holds the latency-model parameters. The zero value is not
// valid; use DefaultConfig.
type Config struct {
	// FiberKmPerMs is the one-way propagation speed in fiber,
	// kilometers per millisecond (~200 km/ms, i.e. 2/3 c).
	FiberKmPerMs float64
	// InflationMin/InflationMax bound the deterministic per-path route
	// inflation factor applied to geodesic distance.
	InflationMin, InflationMax float64
	// BaseProcessing is the fixed per-RTT router/stack overhead.
	BaseProcessing time.Duration
	// JitterMean is the mean of the exponential queueing jitter added
	// to each sampled RTT on top of the deterministic base.
	JitterMean time.Duration
	// SpikeProb is the probability that a sample takes a congestion
	// spike of up to SpikeMax extra delay.
	SpikeProb float64
	// SpikeMax bounds congestion spikes.
	SpikeMax time.Duration
}

// DefaultConfig returns the calibrated parameters used by the paper
// world. With these values a 1000 km geodesic path has a base RTT of
// roughly 10–18 ms depending on its inflation factor, and transatlantic
// paths land in the 80–120 ms band, matching Fig. 2.
func DefaultConfig() Config {
	return Config{
		FiberKmPerMs:   200,
		InflationMin:   1.2,
		InflationMax:   1.8,
		BaseProcessing: 1 * time.Millisecond,
		JitterMean:     2 * time.Millisecond,
		SpikeProb:      0.02,
		SpikeMax:       80 * time.Millisecond,
	}
}

// Model computes RTTs between endpoints. It is immutable after
// construction and safe for concurrent use.
type Model struct {
	cfg Config
}

// New returns a Model with the given configuration.
func New(cfg Config) *Model { return &Model{cfg: cfg} }

// pathInflation returns the deterministic inflation factor for the
// unordered endpoint pair, uniformly spread over
// [InflationMin, InflationMax] by hashing the IDs.
func (m *Model) pathInflation(a, b string) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(lo))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(hi))
	u := float64(h.Sum64()%1_000_000) / 1_000_000
	return m.cfg.InflationMin + u*(m.cfg.InflationMax-m.cfg.InflationMin)
}

// routeKm returns the effective route length in km, accounting for
// gateway detours on either side.
func routeKm(a, b Endpoint) float64 {
	from := a.Loc
	total := 0.0
	if a.Gateway != nil {
		total += geo.Distance(a.Loc, *a.Gateway)
		from = *a.Gateway
	}
	to := b.Loc
	if b.Gateway != nil {
		total += geo.Distance(b.Loc, *b.Gateway)
		to = *b.Gateway
	}
	total += geo.Distance(from, to)
	return total
}

// BaseRTT returns the deterministic floor RTT between a and b: the
// value min-RTT probing converges to. It is symmetric in its
// arguments.
func (m *Model) BaseRTT(a, b Endpoint) time.Duration {
	if a.ID == b.ID {
		return m.cfg.BaseProcessing
	}
	km := routeKm(a, b) * m.pathInflation(a.ID, b.ID)
	prop := time.Duration(2 * km / m.cfg.FiberKmPerMs * float64(time.Millisecond))
	return prop + m.cfg.BaseProcessing + a.Access.oneWayAccessDelay() + b.Access.oneWayAccessDelay()
}

// SampleRTT returns one measured RTT: BaseRTT plus non-negative
// exponential jitter and occasional congestion spikes, drawn from g.
func (m *Model) SampleRTT(a, b Endpoint, g *stats.RNG) time.Duration {
	return m.jitter(m.BaseRTT(a, b), g)
}

// jitter returns one sample on top of base: an exponential queueing
// delay, then with probability SpikeProb a uniform congestion spike.
func (m *Model) jitter(base time.Duration, g *stats.RNG) time.Duration {
	rtt := base + time.Duration(g.ExpFloat64()*float64(m.cfg.JitterMean))
	if g.Bool(m.cfg.SpikeProb) {
		rtt += time.Duration(g.Float64() * float64(m.cfg.SpikeMax))
	}
	return rtt
}

// MinRTT returns the minimum of n samples, the standard active-probing
// estimate used by the paper for Figs. 2 and 7 and by CBG. It draws
// what n SampleRTT calls draw, but computes BaseRTT once.
func (m *Model) MinRTT(a, b Endpoint, n int, g *stats.RNG) time.Duration {
	base := m.BaseRTT(a, b)
	if n <= 0 {
		return base
	}
	best := m.jitter(base, g)
	for i := 1; i < n; i++ {
		if v := m.jitter(base, g); v < best {
			best = v
		}
	}
	return best
}

// Config returns the model parameters.
func (m *Model) Config() Config { return m.cfg }
