package core

import (
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// TestSelectorConcurrentUse runs the selection engine under its
// concurrency contract: one goroutine decides — resolutions,
// serve-or-redirect chains with pull-through, balanced flow accounting
// and a mid-run policy swap — while another snapshots the registry
// Instrument fills, as the live /metrics scrape does. It proves nothing
// about outcomes (those are pinned by the parity tests); its job is to
// fail under -race if a gauge reads state the deciding goroutine
// writes without an atomic.
func TestSelectorConcurrentUse(t *testing.T) {
	r := newRig(t, DefaultConfig())
	reg := obs.NewRegistry()
	r.sel.Instrument(reg)
	homes := make([]Home, len(r.w.VantagePoints))
	for i, vp := range r.w.VantagePoints {
		homes[i] = HomeOf(vp)
	}

	started, done, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for first := true; ; first = false {
			snap := reg.Snapshot()
			if snap.Gauges["sim.selector.flows_active"] < 0 || snap.Gauges["sim.selector.sessions_active"] < 0 {
				t.Errorf("negative load in a scrape: %v", snap.Gauges)
			}
			if first {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-started

	const rounds, perRound = 8, 4000
	for rd := 0; rd < rounds; rd++ {
		g := stats.NewRNG(int64(rd + 1))
		var held []topology.ServerID // flows released at the end of the round
		for i := 0; i < perRound; i++ {
			ldns := r.w.LDNSes[(rd+i)%len(r.w.LDNSes)]
			vid := content.VideoID((rd*perRound + i) % r.cat.N())
			srv := r.sel.ResolveDNS(ldns.ID, vid, g)
			home := homes[ldns.VantagePoint]
			d := r.sel.ServeOrRedirect(srv, vid, ldns.ID, home, g)
			if d.Redirected {
				srv = d.Target
				r.sel.ServeFinal(srv, vid, ldns.ID, home, g)
			}
			r.sel.BeginFlow(srv)
			if i%2 == 0 {
				r.sel.EndFlow(srv)
			} else {
				held = append(held, srv)
			}
			if rd == 0 && i == perRound/2 {
				if err := r.sel.SetPolicy(ProximityOnly{}); err != nil {
					t.Error(err)
				}
			}
		}
		for _, srv := range held {
			r.sel.EndFlow(srv)
		}
	}
	close(done)
	<-stopped

	if r.sel.Policy().Name() != "proximity" {
		t.Errorf("policy after swap = %s, want proximity", r.sel.Policy().Name())
	}
	if got := r.sel.dcFlows.Total(); got != 0 {
		t.Errorf("DC flow total after balanced acquire/release = %d, want 0", got)
	}
	spills, hotspots, misses := r.sel.Counters()
	if spills < 0 || hotspots < 0 || misses < 0 {
		t.Errorf("negative counters: %d %d %d", spills, hotspots, misses)
	}
	if r.pl.PulledCount() == 0 {
		t.Error("no miss pulled a video through; the run never wrote the placement")
	}
}
