// Package probe provides the active-measurement side of the paper's
// methodology: ping campaigns from vantage points and landmarks toward
// content servers (Figs 2, 3, 7, 8; Table III inputs) and the
// PlanetLab first-access experiment on unpopular videos (Figs 17, 18).
//
// A Prober interacts with the simulated network the way ping interacts
// with the real one: it learns round-trip times and nothing else.
package probe

import (
	"fmt"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
	"github.com/ytcdn-sim/ytcdn/internal/par"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// Prober issues RTT measurements against a world. Every measurement
// draws its noise from a stream forked off the prober's base RNG and
// labelled by the measured pair, so results depend only on what is
// measured — never on the order measurements are issued in. That makes
// the Prober safe for concurrent use and keeps parallel measurement
// campaigns bit-identical to sequential ones.
type Prober struct {
	w *topology.World
	g *stats.RNG
}

// New returns a prober drawing measurement noise from streams forked
// off g.
func New(w *topology.World, g *stats.RNG) *Prober {
	return &Prober{w: w, g: g}
}

// server looks up the server that answers pings at addr.
func (p *Prober) server(addr ipnet.Addr) (*topology.Server, error) {
	srv, ok := p.w.ServerByAddr(addr)
	if !ok {
		return nil, fmt.Errorf("probe: %s does not answer pings", addr)
	}
	return srv, nil
}

// serverEndpoint builds the per-server network endpoint. Servers in
// one data center share a location but keep distinct identities, so
// measured paths to them differ slightly — like real co-located
// machines behind different ports and peerings.
func (p *Prober) serverEndpoint(srv *topology.Server) netmodel.Endpoint {
	return netmodel.Endpoint{
		ID:     "srv-" + srv.Addr.String(),
		Loc:    p.w.DC(srv.DC).City.Point,
		Access: netmodel.AccessDataCenter,
	}
}

// MinRTT probes target n times from the given endpoint and returns the
// minimum, the standard latency estimate. The measurement noise is a
// pure function of (prober seed, from.ID, target), so repeating a
// measurement reproduces it.
func (p *Prober) MinRTT(from netmodel.Endpoint, target ipnet.Addr, n int) (time.Duration, error) {
	srv, err := p.server(target)
	if err != nil {
		return 0, err
	}
	g := p.g.Fork("minrtt/" + from.ID + "/" + target.String())
	return p.w.Net.MinRTT(from, p.serverEndpoint(srv), n, g), nil
}

// MinRTTFromVP probes target from a vantage point's monitored network.
func (p *Prober) MinRTTFromVP(vpName string, target ipnet.Addr, n int) (time.Duration, error) {
	idx := p.w.VPIndex(vpName)
	if idx < 0 {
		return 0, fmt.Errorf("probe: unknown vantage point %q", vpName)
	}
	return p.MinRTT(p.w.VantagePoints[idx].Endpoint(), target, n)
}

// CampaignFromVP measures every target from a vantage point and
// returns per-address minimum RTTs in milliseconds (the Fig 2 / Fig 7
// campaigns). The per-target probes fan out across a worker pool of
// the given size (1 probes sequentially; values < 1 mean one worker
// per core). Each measurement draws noise from a stream forked by
// (vantage point, target), so the campaign is order-independent: the
// result map is identical at every pool size.
func (p *Prober) CampaignFromVP(vpName string, targets []ipnet.Addr, n, parallelism int) (map[ipnet.Addr]float64, error) {
	idx := p.w.VPIndex(vpName)
	if idx < 0 {
		return nil, fmt.Errorf("probe: unknown vantage point %q", vpName)
	}
	from := p.w.VantagePoints[idx].Endpoint()
	rtts := make([]time.Duration, len(targets))
	answered := make([]bool, len(targets))
	par.ForEach(len(targets), par.Normalize(parallelism), func(i int) {
		rtt, err := p.MinRTT(from, targets[i], n)
		if err != nil {
			// Unroutable targets simply drop out of the campaign, as
			// unreachable hosts do in real ping sweeps.
			return
		}
		rtts[i] = rtt
		answered[i] = true
	})
	out := make(map[ipnet.Addr]float64, len(targets))
	for i, t := range targets {
		if answered[i] {
			out[t] = rtts[i].Seconds() * 1000
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probe: no target of %d answered from %s", len(targets), vpName)
	}
	return out, nil
}

// LandmarkInfos converts the world's landmarks into CBG inputs.
func (p *Prober) LandmarkInfos() []geoloc.LandmarkInfo {
	out := make([]geoloc.LandmarkInfo, len(p.w.Landmarks))
	for i, lm := range p.w.Landmarks {
		out[i] = geoloc.LandmarkInfo{Name: lm.Name, Loc: lm.Loc}
	}
	return out
}

// LandmarkPairRTT measures one landmark-to-landmark minimum RTT (a
// single CBG calibration input). The noise stream is forked per
// ordered pair, so measuring pairs in any order — or concurrently —
// reproduces the same matrix.
func (p *Prober) LandmarkPairRTT(i, j, samples int) time.Duration {
	if i > j {
		i, j = j, i
	}
	if i == j {
		return 0
	}
	g := p.g.Fork(fmt.Sprintf("cross/%d/%d", i, j))
	return p.w.Net.MinRTT(p.w.Landmarks[i].Endpoint(), p.w.Landmarks[j].Endpoint(), samples, g)
}

// CrossRTTMatrix measures landmark-to-landmark minimum RTTs for CBG
// calibration, fanning the independent pair measurements out across a
// worker pool of the given size (values <= 1 measure sequentially).
// The result is identical at every pool size.
func (p *Prober) CrossRTTMatrix(samples, parallelism int) [][]time.Duration {
	n := len(p.w.Landmarks)
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
	}
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	vals := make([]time.Duration, len(pairs))
	par.ForEach(len(pairs), parallelism, func(k int) {
		vals[k] = p.LandmarkPairRTT(pairs[k].i, pairs[k].j, samples)
	})
	for k, pr := range pairs {
		m[pr.i][pr.j] = vals[k]
		m[pr.j][pr.i] = vals[k]
	}
	return m
}

// LandmarkSweep measures targets from every landmark: the CBG
// localization input. It holds the landmark endpoints and the route
// length from each landmark to each data center, so a sweep computes
// no geodesic. The table is exact because a server's endpoint sits at
// its data center's position and neither endpoint has a gateway.
// A sweep is read-only and safe for concurrent use. It is sized for
// one localization pass (about 70 KB on the paper world's 41 data
// centers and 215 landmarks); drop it when the pass ends.
type LandmarkSweep struct {
	p   *Prober
	lms []netmodel.Endpoint
	// route[int(dc)*len(lms)+i] is the route length from landmark i
	// to any server of data center dc.
	route []float64
}

// LandmarkSweep builds a sweep over the world's landmarks.
func (p *Prober) LandmarkSweep() *LandmarkSweep {
	lms := make([]netmodel.Endpoint, len(p.w.Landmarks))
	for i, lm := range p.w.Landmarks {
		lms[i] = lm.Endpoint()
	}
	route := make([]float64, 0, len(p.w.DataCenters)*len(lms))
	for _, dc := range p.w.DataCenters {
		at := netmodel.Endpoint{Loc: dc.City.Point, Access: netmodel.AccessDataCenter}
		for _, lm := range lms {
			route = append(route, netmodel.RouteKm(lm, at))
		}
	}
	return &LandmarkSweep{p: p, lms: lms, route: route}
}

// RTTs measures a target from every landmark (one CBG localization
// input). The whole sweep draws from one stream forked per target, so
// localizing many targets concurrently reproduces the sequential
// measurements exactly.
func (s *LandmarkSweep) RTTs(target ipnet.Addr, samples int) ([]time.Duration, error) {
	srv, err := s.p.server(target)
	if err != nil {
		return nil, err
	}
	g := s.p.g.Fork("lmrtt/" + target.String())
	return s.measure(s.p.serverEndpoint(srv), srv.DC, samples, g), nil
}

// measure returns ep's minimum RTT from every landmark, drawing the
// samples from g in landmark order. ep must be the endpoint of a
// server of data center dc.
func (s *LandmarkSweep) measure(ep netmodel.Endpoint, dc topology.DataCenterID, samples int, g *stats.RNG) []time.Duration {
	route := s.route[int(dc)*len(s.lms):][:len(s.lms)]
	out := make([]time.Duration, len(s.lms))
	for i := range s.lms {
		out[i] = s.p.w.Net.MinRTTOnRoute(s.lms[i], ep, route[i], samples, g)
	}
	return out
}
