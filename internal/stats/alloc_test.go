//go:build !race

package stats

import (
	"runtime"
	"testing"
)

var (
	sinkRNG *RNG
	sinkU   uint64
	sinkI   int
)

// forkBytesBudget is TestForkAllocs' bound on the bytes a fork plus 15
// draws allocates: the RNG's one allocation (96 B, holding its lazy
// source and rand.Rand), with room for a size-class change. Seeding
// math/rand's source allocated 5,376 B of the 5,440 B a fork took.
const forkBytesBudget = 128

// TestForkAllocs is the fork's allocation contract: a Fork plus 15
// draws — a typical probe measurement's stream — allocates once, the
// RNG itself, and stays within forkBytesBudget. The draws are
// lazySource.Int63 in its lazy phase and allocate nothing.
func TestForkAllocs(t *testing.T) {
	parent := NewRNG(20100904)
	forkAndDraw := func() {
		g := parent.Fork(forkLabel)
		for j := 0; j < 15; j++ {
			sinkF += g.Float64()
		}
		sinkRNG = g
	}
	allocs := testing.AllocsPerRun(1000, forkAndDraw)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		forkAndDraw()
	}
	runtime.ReadMemStats(&after)
	perFork := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Fork + 15 draws: %.1f allocs, %.1f B", allocs, perFork)
	if allocs > 1 {
		t.Errorf("Fork + 15 draws allocates %.1f times, want 1", allocs)
	}
	if perFork > forkBytesBudget {
		t.Errorf("Fork + 15 draws allocates %.1f B, budget %d B", perFork, forkBytesBudget)
	}
}

// TestDrawAllocs is the draw path's allocation contract: once a stream
// exists, no draw allocates, in either phase of its source. A stream
// allocates only when it builds its register, once, at draw lazyDraws;
// every case below is warmed past that point or reseeded before it.
func TestDrawAllocs(t *testing.T) {
	var lazy, built lazySource
	built.Seed(7)
	for i := 0; i <= lazyDraws; i++ {
		built.Int63()
	}
	g := NewRNG(20100904)
	for i := 0; i <= lazyDraws; i++ {
		g.Float64()
	}
	z, err := NewZipf(400_000, 0.8)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		run  func()
	}{
		{"lazySource draws in the lazy phase", func() {
			lazy.Seed(7)
			for j := 0; j < lazyDraws/2; j++ {
				sinkU += uint64(lazy.Int63()) + lazy.Uint64()
			}
		}},
		{"lazySource draws on its built register", func() {
			sinkU += uint64(built.Int63()) + built.Uint64()
		}},
		{"register draws through the RNG's rand.Rand", func() {
			sinkU += uint64(g.Int63()) + g.r.Uint64()
		}},
		{"Zipf.Sample", func() { sinkI += z.Sample(g) }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", c.name, allocs)
		}
	}
}
