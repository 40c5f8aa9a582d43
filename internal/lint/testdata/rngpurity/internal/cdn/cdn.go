// Package cdn stands in for a simulation package and exercises every
// rngpurity trigger.
package cdn

import (
	crand "crypto/rand" // want "crypto/rand"
	mrand "math/rand"   // want "math/rand"
	"time"

	"example.com/rngpurityfix/internal/stats"
)

// WallClock reads the wall clock on a simulation path.
func WallClock() int64 {
	start := time.Now() // want "wall clock"
	_ = mrand.Int()
	var b [4]byte
	_, _ = crand.Read(b[:])
	return time.Since(start).Nanoseconds() // want "wall clock"
}

// ComputedSeed derives a stream by seed arithmetic instead of Fork.
func ComputedSeed(seed int64, i int) *stats.RNG {
	return stats.NewRNG(seed + int64(i)*7) // want "computed seed"
}

// HashedSeed launders the seed through a helper call.
func HashedSeed(seed int64) *stats.RNG {
	return stats.NewRNG(mix(seed)) // want "computed seed"
}

func mix(seed int64) int64 { return seed * 31 }

// ServerStream seeds a stream with a converted server index, so every
// server's stream is fixed whatever the study seed.
func ServerStream(srv int) *stats.RNG {
	return stats.NewRNG(int64(srv)) // want "computed seed"
}
