package core

import (
	"sync"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/content"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

// TestSelectorConcurrentUse hammers the selection engine from several
// goroutines — resolutions, serve-or-redirect chains, flow accounting,
// placement pull-through and a mid-run policy swap — the concurrent
// use the Selector documents. It proves nothing about outcomes (those
// are pinned by the parity tests); its job is to fail under -race if
// any of the shared structures loses its guard.
func TestSelectorConcurrentUse(t *testing.T) {
	r := newRig(t, DefaultConfig())
	homes := make([]Home, len(r.w.VantagePoints))
	for i, vp := range r.w.VantagePoints {
		homes[i] = HomeOf(vp)
	}

	const workers = 8
	const perWorker = 4000
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wk := wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := stats.NewRNG(int64(wk + 1))
			for i := 0; i < perWorker; i++ {
				ldns := r.w.LDNSes[(wk+i)%len(r.w.LDNSes)]
				vid := content.VideoID((wk*perWorker + i) % r.cat.N())
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
					// Balance from another goroutine's perspective
					// too: release later in the loop.
					defer r.sel.EndFlow(srv)
				}
				if wk == 0 && i == perWorker/2 {
					if err := r.sel.SetPolicy(ProximityOnly{}); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

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
}

var _ = topology.ServerID(0)
