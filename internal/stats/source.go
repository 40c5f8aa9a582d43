package stats

import "math/rand"

// lazySource is a rand.Source64 that yields exactly the sequence of
// rand.NewSource(seed) but builds its state on demand.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Seeding fills the register from 1,841 steps of the
// Park–Miller LCG x[s+1] = 48271·x[s] mod (2^31−1), starting at the
// reduced seed x[0], mixed with a fixed table (rngCooked): word i is
//
//	(x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^ rngCooked[i]
//
// Draw k (0-based) adds the words at feed = 333−k and tap = 606−k
// (mod 607) and stores the sum at feed. Before draw 273 the tap has not
// reached a word any draw wrote, so the first 273 draws read only
// seeded words, and since x[s] = x[0]·48271^s, each of those is three
// multiplications by tabled powers away. math/rand instead runs the
// whole LCG chain and allocates the register for every stream, while
// most of this module's streams (one per probe measurement) draw about
// 15 values.
//
// A stream therefore starts lazy, computing two words per draw. At draw
// lazyDraws it builds the full register from the table, replays the
// draws already served with the standard recurrence, and from then on
// steps exactly as math/rand does.
type lazySource struct {
	x0  uint64    // the seed, reduced as math/rand reduces it
	n   int       // draws served lazily, at most lazyDraws
	reg *register // the full state; nil while lazy
	// owner, when set, is the rand.Rand variable an RNG draws through.
	// Building the register repoints it at a rand.Rand over the
	// register, so the RNG's later draws skip the lazy check, and the
	// stack frame the build call costs Int63 and Uint64.
	owner **rand.Rand
}

// register is math/rand's generator state.
type register struct {
	vec       [rngLen]int64
	tap, feed int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the LCG modulus, a Mersenne prime

	// lcgMul is the LCG multiplier and lcgSkip the number of LCG steps
	// seeding discards before word 0.
	lcgMul  = 48271
	lcgSkip = 20

	// lazyDraws is the draw at which a stream builds its register. It
	// may be anything up to rngTap: beyond that, a lazy draw would read
	// a word an earlier draw overwrote. Lazy draws cost a few times a
	// register step, so the register pays for itself well before
	// rngTap in a long stream.
	lazyDraws = 64
)

var (
	// lcgPow[i][j] is 48271^(21+3i+j) mod (2^31−1): word i reads LCG
	// step 21+3i+j as x[0]·lcgPow[i][j], so every step seeding reads is
	// one multiplication away from the seed.
	lcgPow [rngLen][3]uint64
	// rngCooked is math/rand's seeding table, recovered at init.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for s := 1; s <= lcgSkip; s++ {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			p = mulMod(p, lcgMul)
			lcgPow[i][j] = p
		}
	}
	recoverCooked()
}

// mulMod returns a·b mod (2^31−1) for a, b in [1, 2^31−2]. Since
// 2^31 ≡ 1, folding the high bits onto the low ones preserves the
// residue; two folds bring any product below 2^31, and the result is
// never 2^31−1 itself because the modulus is prime, so no product of
// two nonzero residues is ≡ 0.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// lcgWord is the LCG part of register word i for reduced seed x0.
func lcgWord(x0 uint64, i int) uint64 {
	p := &lcgPow[i]
	return mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
}

// seedWord is register word i as seeding leaves it.
func seedWord(x0 uint64, i int) uint64 { return lcgWord(x0, i) ^ rngCooked[i] }

// recoverCooked derives rngCooked from math/rand itself instead of
// copying its 607 constants. Draws 0..606 of rand.NewSource(1) write
// every register word once (draw k at feed 333−k mod 607), so their
// values are the final register. Undoing the draws newest first gives
// back the seeded register: when draw k ran, its tap word held the
// value it holds after draw k, since a draw writes only its feed word.
// XORing out the LCG part of each word leaves the table.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	for k := 0; k < rngLen; k++ {
		vec[feedAt(k)] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		vec[feedAt(k)] -= vec[rngLen-1-k]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// feedAt is the register word draw k (0 <= k < rngLen) writes.
func feedAt(k int) int {
	return (rngLen - rngTap - 1 - k + rngLen) % rngLen
}

// Seed resets the source to the start of rand.NewSource(seed)'s
// sequence: the seed is reduced mod 2^31−1 into [1, 2^31−2], and a seed
// that reduces to 0 becomes 89482311.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint64(seed)}
}

// Int63 returns the next draw with its top bit cleared.
func (s *lazySource) Int63() int64 {
	if r := s.reg; r != nil {
		return int64(r.step() & rngMask)
	}
	return int64(s.lazyNext() & rngMask)
}

// Uint64 returns the next draw.
func (s *lazySource) Uint64() uint64 {
	if r := s.reg; r != nil {
		return r.step()
	}
	return s.lazyNext()
}

// lazyNext serves the next draw of a stream whose register is not
// built yet, building it at draw lazyDraws.
func (s *lazySource) lazyNext() uint64 {
	k := s.n
	if k < lazyDraws {
		s.n++
		return seedWord(s.x0, rngLen-rngTap-1-k) + seedWord(s.x0, rngLen-1-k)
	}
	r := new(register)
	s.fill(r)
	s.reg = r
	if s.owner != nil {
		*s.owner = rand.New(r)
	}
	return r.step()
}

// fill sets r to the state after the s.n draws served so far: the
// seeded words, then s.n steps of the recurrence. The loop body is
// seedWord(x0, i) with lcgWord written out, since the compiler does not
// inline lcgWord and the words are most of a build's cost.
func (s *lazySource) fill(r *register) {
	x0 := s.x0
	for i, p := range &lcgPow {
		r.vec[i] = int64(mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2]) ^ rngCooked[i])
	}
	r.tap, r.feed = 0, rngLen-rngTap
	for k := 0; k < s.n; k++ {
		r.step()
	}
}

// step is one draw of math/rand's recurrence: it moves tap and feed
// back one word and adds the tap word into the feed word.
func (r *register) step() uint64 {
	vec := &r.vec
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	x := vec[feed] + vec[tap]
	vec[feed] = x
	r.tap, r.feed = tap, feed
	return uint64(x)
}

// A built register is a rand.Source64 in its own right, with the
// steady-state cost of math/rand's source: an RNG draws from it
// directly once its lazySource has built it.

// Int63 returns the next draw with its top bit cleared.
func (r *register) Int63() int64 { return int64(r.step() & rngMask) }

// Uint64 returns the next draw.
func (r *register) Uint64() uint64 { return r.step() }

// Seed resets the register to the start of rand.NewSource(seed)'s
// sequence.
func (r *register) Seed(seed int64) {
	var s lazySource
	s.Seed(seed)
	s.fill(r)
}
