// Package content models the video corpus: identifiers, durations,
// resolutions and sizes, a Zipf popularity law, the replication tier of
// each video, and the "video of the day" schedule that produces the
// popularity hot-spots of paper §VII-C.
package content

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// VideoID identifies a video. IDs double as popularity ranks: ID 0 is
// the most popular video. The exported form (StringID) is the 11
// characters of a YouTube-style identifier.
type VideoID int32

// Resolution is the video resolution requested by the player, one of
// the formats Tstat records. It is one byte so a flow record carries
// it inline; the zero value is not a resolution.
type Resolution uint8

// Supported resolutions.
const (
	Res360p Resolution = iota + 1
	Res480p
	Res720p
)

// String implements fmt.Stringer.
func (r Resolution) String() string {
	switch r {
	case Res360p:
		return "360p"
	case Res480p:
		return "480p"
	case Res720p:
		return "720p"
	default:
		return "unknown"
	}
}

// ParseResolution inverts String.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "360p":
		return Res360p, nil
	case "480p":
		return Res480p, nil
	case "720p":
		return Res720p, nil
	default:
		return 0, fmt.Errorf("content: unknown resolution %q", s)
	}
}

// bitrateBps returns the nominal media bitrate in bits per second.
func (r Resolution) bitrateBps() float64 {
	switch r {
	case Res360p:
		return 400_000
	case Res480p:
		return 750_000
	case Res720p:
		return 1_500_000
	default:
		return 400_000
	}
}

// Config parameterizes a Catalog.
type Config struct {
	// N is the corpus size.
	N int
	// ZipfExponent is the popularity skew (≈1 for YouTube).
	ZipfExponent float64
	// TailRank is the first rank NOT replicated across all data
	// centers; videos at rank >= TailRank live only at their origin
	// DCs until pulled (paper §VII-C "availability of unpopular
	// videos").
	TailRank int
	// VOTDShare is the fraction of requests that target the video of
	// the day during its 24-hour window (paper Fig 14: these videos
	// were "played by default when accessing the youtube.com web page
	// for exactly 24 hours").
	VOTDShare float64
	// Days is the number of scheduled video-of-the-day slots.
	Days int
	// MedianDuration is the median video duration; durations follow a
	// log-normal around it.
	MedianDuration time.Duration
	// DurationSigma is the log-normal sigma of durations.
	DurationSigma float64
}

// DefaultConfig returns the corpus used by the paper world. The Zipf
// exponent of 0.8 keeps the head video near 1.5% of requests (so
// organic popularity alone does not saturate a server — hot-spots come
// from the video-of-the-day bursts, as in the paper), and the tail
// threshold puts ~8% of request mass on unreplicated videos, which
// after the first-access pull-through effect yields the non-preferred
// access rates of Figs 9-10.
func DefaultConfig() Config {
	return Config{
		N:              400_000,
		ZipfExponent:   0.8,
		TailRank:       260_000,
		VOTDShare:      0.055,
		Days:           7,
		MedianDuration: 150 * time.Second,
		DurationSigma:  0.7,
	}
}

// Catalog is an immutable video corpus. Safe for concurrent use.
type Catalog struct {
	cfg  Config
	zipf *stats.Zipf
	votd []VideoID
}

// NewCatalog builds a catalog, validating the configuration.
func NewCatalog(cfg Config) (*Catalog, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("content: catalog needs N >= 1, got %d", cfg.N)
	}
	if cfg.TailRank < 0 || cfg.TailRank > cfg.N {
		return nil, fmt.Errorf("content: TailRank %d out of [0, %d]", cfg.TailRank, cfg.N)
	}
	if cfg.VOTDShare < 0 || cfg.VOTDShare >= 1 {
		return nil, fmt.Errorf("content: VOTDShare %g out of [0, 1)", cfg.VOTDShare)
	}
	if cfg.VOTDShare > 0 && cfg.Days < 1 {
		return nil, fmt.Errorf("content: VOTDShare %g needs Days >= 1 to schedule a video of the day, got %d", cfg.VOTDShare, cfg.Days)
	}
	z, err := stats.NewZipf(cfg.N, cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	c := &Catalog{cfg: cfg, zipf: z}
	// Videos of the day: moderately popular videos (well inside the
	// replicated range) that receive a one-day burst. Spaced so each
	// day has a distinct video.
	for d := 0; d < cfg.Days; d++ {
		rank := 400 + 37*d
		if rank >= cfg.N {
			rank = d % cfg.N
		}
		c.votd = append(c.votd, VideoID(rank))
	}
	return c, nil
}

// Config returns the catalog configuration.
func (c *Catalog) Config() Config { return c.cfg }

// N returns the corpus size.
func (c *Catalog) N() int { return c.cfg.N }

// VideoOfDay returns the scheduled video for the given day index
// (clamped to the schedule).
func (c *Catalog) VideoOfDay(day int) VideoID {
	if day < 0 {
		day = 0
	}
	if day >= len(c.votd) {
		day = len(c.votd) - 1
	}
	return c.votd[day]
}

// Sample draws a video for a request arriving at time t. With
// probability VOTDShare the request goes to the current video of the
// day; otherwise it follows the Zipf law.
func (c *Catalog) Sample(g *stats.RNG, t time.Duration) VideoID {
	if c.cfg.VOTDShare > 0 && g.Bool(c.cfg.VOTDShare) {
		return c.VideoOfDay(int(t / (24 * time.Hour)))
	}
	return VideoID(c.zipf.Sample(g))
}

// IsTail reports whether the video is in the unreplicated tail.
func (c *Catalog) IsTail(v VideoID) bool { return int(v) >= c.cfg.TailRank }

// hash64 gives a per-video deterministic 64-bit value with a label.
func hash64(v VideoID, label string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	_, _ = h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return h.Sum64()
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h%1_000_000_000) / 1_000_000_000 }

// Duration returns the deterministic duration of a video: log-normal
// around the configured median, clamped to [20s, 30m].
func (c *Catalog) Duration(v VideoID) time.Duration {
	// Two independent uniforms -> one normal via Box-Muller.
	u1 := unit(hash64(v, "dur-a"))
	u2 := unit(hash64(v, "dur-b"))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	n := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	d := time.Duration(float64(c.cfg.MedianDuration) * math.Exp(c.cfg.DurationSigma*n))
	if d < 20*time.Second {
		d = 20 * time.Second
	}
	if d > 30*time.Minute {
		d = 30 * time.Minute
	}
	return d
}

// SizeBytes returns the full-file size at this resolution of a video
// lasting d (see Catalog.Duration).
func (r Resolution) SizeBytes(d time.Duration) int64 {
	return int64(d.Seconds() * r.bitrateBps() / 8)
}

// SampleResolution draws a resolution from the 2010-era mix
// (mostly 360p).
func (c *Catalog) SampleResolution(g *stats.RNG) Resolution {
	u := g.Float64()
	switch {
	case u < 0.70:
		return Res360p
	case u < 0.92:
		return Res480p
	default:
		return Res720p
	}
}

// base64ish is the alphabet of YouTube video identifiers.
const base64ish = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// StringID renders the 11-character YouTube-style identifier of v as
// its bytes, an array rather than a string so that rendering allocates
// nothing and a flow record holds no pointer. The mapping is
// injective: multiplication by an odd constant is a bijection on
// 64-bit integers, and the 11 base-64 digits are exactly its base-64
// representation (64 bits < 66 = 11*6 bits).
func StringID(v VideoID) [11]byte {
	var buf [11]byte
	x := uint64(uint32(v)) * 0x9E3779B97F4A7C15
	for i := 0; i < 11; i++ {
		buf[i] = base64ish[x%64]
		x /= 64
	}
	return buf
}

// ParseStringID is not provided: traces carry the opaque identifier,
// and the simulator keeps a side map when it needs to invert it.
