package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the draws a rand.Rand takes from src.
type countingSource struct {
	src rand.Source64
	n   int
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// drawOp makes one call of the kind op selects and returns its result
// as bits. Every kind takes at least one draw from the source.
func drawOp(r *rand.Rand, op byte) uint64 {
	switch op % 8 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.ExpFloat64())
	case 2:
		return math.Float64bits(r.NormFloat64())
	case 3:
		if op&8 != 0 {
			return uint64(r.Intn(1<<40 + int(op))) // the Int63n path
		}
		return uint64(r.Intn(int(op) + 1))
	case 4:
		return uint64(r.Int63())
	case 5:
		return r.Uint64()
	case 6:
		var h uint64
		for _, v := range r.Perm(int(op%5) + 2) {
			h = h*31 + uint64(v)
		}
		return h
	default:
		a := []uint64{1, 2, 3, 4, 5, 6}[:int(op%5)+2]
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		var h uint64
		for _, v := range a {
			h = h*31 + v
		}
		return h
	}
}

// tailDraws is how many raw draws matchMathRand takes after the ops:
// enough that every stream builds its register and wraps it once.
const tailDraws = rngLen + 1

// matchMathRand makes the calls ops selects, then tailDraws raw draws,
// both on a bare lazySource and on an RNG (which switches to drawing
// from the register once it is built), and fails at the first result
// that differs from rand.NewSource(seed)'s. It returns the number of
// draws the bare source served.
func matchMathRand(t *testing.T, seed int64, ops []byte) int {
	t.Helper()
	var lazy lazySource
	lazy.Seed(seed)
	counted := &countingSource{src: &lazy}
	bare, g := rand.New(counted), NewRNG(seed)
	for _, s := range []struct {
		name string
		r    func() *rand.Rand
	}{
		{"lazySource", func() *rand.Rand { return bare }},
		{"RNG", func() *rand.Rand { return g.r }},
	} {
		want := rand.New(rand.NewSource(seed))
		for i, op := range ops {
			if got, w := drawOp(s.r(), op), drawOp(want, op); got != w {
				t.Fatalf("%s seed %d: call %d (op %d): got %#x, want %#x", s.name, seed, i, op%8, got, w)
			}
		}
		for i := 0; i < tailDraws; i++ {
			if got, w := s.r().Uint64(), want.Uint64(); got != w {
				t.Fatalf("%s seed %d: tail draw %d after %d calls: got %#x, want %#x", s.name, seed, i, len(ops), got, w)
			}
		}
	}
	return counted.n
}

// oracleSeeds are the reduction's edge cases: zero and every seed that
// reduces to zero (both become 89482311), ±1, the modulus ±1, the
// int64 extremes, and 89482311 itself.
var oracleSeeds = []int64{
	0, 1, -1, int32max, -int32max, int32max + 1, int32max - 1, -int32max - 1,
	2 * int32max, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311,
}

// TestLazySourceMatchesMathRand is the source's oracle: on 300 random
// seeds and the edge seeds, 2,000 raw draws and then 2,000 mixed
// math/rand calls — crossing the register build at draw lazyDraws, the
// last draw that may be lazy (rngTap−1) and the register's wrap at
// draw rngLen — must equal rand.NewSource(seed)'s, result by result.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), oracleSeeds...)
	pick := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		s := pick.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	ops := make([]byte, 2000)
	for _, seed := range seeds {
		var lazy lazySource
		lazy.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2000; k++ {
			if g, w := lazy.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: raw draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
		for i := range ops {
			ops[i] = byte(pick.Intn(256))
		}
		if n := matchMathRand(t, seed, ops); n < len(ops)+tailDraws {
			t.Fatalf("seed %d: %d calls took only %d draws", seed, len(ops)+tailDraws, n)
		}
	}
}

// TestLazySourceReseed requires Seed called mid-stream — while lazy,
// at the register build and after it — to restart exactly as a fresh
// rand.NewSource with the new seed: on the source itself, through
// rand.Rand.Seed, and on an RNG's rand.Rand, which draws from the bare
// register once it is built.
func TestLazySourceReseed(t *testing.T) {
	for _, at := range []int{0, 1, lazyDraws - 1, lazyDraws, lazyDraws + 1, rngTap, rngLen + 5} {
		for _, s2 := range []int64{0, 7, -int32max, math.MaxInt64} {
			var lazy lazySource
			lazy.Seed(20100904)
			bare := rand.New(&lazy)
			g := NewRNG(20100904)
			for k := 0; k < at; k++ {
				bare.Uint64()
				g.Int63()
			}
			lazy.Seed(s2)
			g.r.Seed(s2)
			for _, r := range []*rand.Rand{bare, g.r} {
				want := rand.New(rand.NewSource(s2))
				for k := 0; k < tailDraws; k++ {
					if got, w := r.Int63(), want.Int63(); got != w {
						t.Fatalf("reseed to %d after %d draws: draw %d: got %d, want %d", s2, at, k, got, w)
					}
				}
			}
		}
	}
}

// TestRNGMatchesMathRand checks the public stream end to end: NewRNG
// and Fork draw exactly what rand.New(rand.NewSource(seed)) draws, and
// an RNG past its register build draws from the register directly.
func TestRNGMatchesMathRand(t *testing.T) {
	parent := NewRNG(20100904)
	for _, g := range []*RNG{parent, parent.Fork("minrtt/lm-Brussels/173.194.0.1"), parent.ForkIndexed("subnet", 3)} {
		want := rand.New(rand.NewSource(g.Seed()))
		for k := 0; k < 1000; k++ {
			if got, w := g.Float64(), want.Float64(); got != w {
				t.Fatalf("seed %d: Float64 %d: got %v, want %v", g.Seed(), k, got, w)
			}
			if got, w := g.ExpFloat64(), want.ExpFloat64(); got != w {
				t.Fatalf("seed %d: ExpFloat64 %d: got %v, want %v", g.Seed(), k, got, w)
			}
		}
		if g.r == &g.lazy {
			t.Errorf("seed %d: still drawing through the lazy source after its register was built", g.Seed())
		}
	}
}

// FuzzLazySourceMatchesMathRand runs the oracle on a fuzzed seed and
// call pattern: each pattern byte picks one math/rand call, and
// matchMathRand follows the pattern with enough raw draws to build the
// register and wrap it.
func FuzzLazySourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(-1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 11, 19})
	f.Add(int64(math.MinInt64), make([]byte, lazyDraws))
	f.Add(int64(int32max), []byte("minrtt/lm-Brussels/173.194.0.1"))
	f.Add(int64(20100904), make([]byte, rngTap))
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		if len(pattern) > 4096 {
			pattern = pattern[:4096]
		}
		matchMathRand(t, seed, pattern)
	})
}

var sinkF float64

// forkLabel is a probe-style fork label, longer than the 32-byte stack
// buffer a string-to-bytes copy in ForkSeed could use.
const forkLabel = "minrtt/lm-Brussels-BE/173.194.120.17"

// BenchmarkForkDraws measures a fork plus n Float64 draws, next to the
// same draws from a freshly seeded math/rand source. The counts sit on
// either side of the register build (lazyDraws) and of the last draw
// that may be lazy (rngTap).
func BenchmarkForkDraws(b *testing.B) {
	for _, n := range []int{1, 15, lazyDraws, lazyDraws + 1, rngTap, rngTap + 1, 2000} {
		b.Run(fmt.Sprintf("draws=%d/lazy", n), func(b *testing.B) {
			parent := NewRNG(20100904)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := parent.Fork(forkLabel)
				for j := 0; j < n; j++ {
					sinkF += g.Float64()
				}
			}
		})
		b.Run(fmt.Sprintf("draws=%d/math-rand", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(ForkSeed(20100904, forkLabel)))
				for j := 0; j < n; j++ {
					sinkF += r.Float64()
				}
			}
		})
	}
}

// BenchmarkSteadyDraws measures one Float64 draw from a stream long
// past its register build, next to the same draw from an RNG over
// math/rand's source.
func BenchmarkSteadyDraws(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *RNG
	}{
		{"lazy", NewRNG(20100904)},
		{"math-rand", &RNG{seed: 20100904, r: rand.New(rand.NewSource(20100904))}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := bc.g
			for j := 0; j < 2*rngLen; j++ {
				g.Float64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF += g.Float64()
			}
		})
	}
}
