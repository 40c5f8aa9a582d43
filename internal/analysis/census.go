package analysis

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// flowSizeMarks are the sizes, in bytes, at which Fig 4 reads the
// flow-size CDF.
var flowSizeMarks = [3]int64{1e4, 1e6, 1e7}

// Table II's AS buckets, indexes into Census.bucketBytes.
const (
	bucketGoogle = iota
	bucketYouTubeEU
	bucketSameAS
	bucketOthers
	numBuckets
)

// censusServer is what a Census keeps per distinct server, decided
// from its one whois lookup.
type censusServer struct {
	bucket uint8 // Table II bucket
	google bool  // in the §IV Google subset
}

// Census accumulates everything the trace-level results need from one
// pass over a dataset: Table I's summary, Table II's per-AS split,
// Fig 4's flow-size CDF, and the distinct server sets that
// localization, the ping campaign and the §IV Google filter start
// from. Add each record once, in any order, then read the results.
// Every result comes from integer counts and sets, so the order the
// records arrive in cannot change one.
//
// Each server is looked up in the registry once, on its first record.
// A nil registry routes nothing: every server falls in Table II's
// "Others" bucket and the Google subset is empty. A Census is not safe
// for concurrent use.
type Census struct {
	reg      *asdb.Registry
	clientAS asdb.ASN

	servers     map[ipnet.Addr]censusServer
	clients     map[ipnet.Addr]struct{}
	flows       int
	bytes       int64
	bucketBytes [numBuckets]int64
	control     int
	atMost      [len(flowSizeMarks)]int
	// sizes keeps every flow size for the median.
	sizes []int64
}

// NewCensus returns an empty census of a trace captured in the
// network of clientAS (Table II's "Same AS" bucket). records is the
// expected record count; the census keeps one size per record, and a
// correct count sizes that buffer in one allocation.
func NewCensus(reg *asdb.Registry, clientAS asdb.ASN, records int) *Census {
	return &Census{
		reg:      reg,
		clientAS: clientAS,
		servers:  make(map[ipnet.Addr]censusServer),
		clients:  make(map[ipnet.Addr]struct{}),
		sizes:    make([]int64, 0, records),
	}
}

// Add counts one flow record.
func (c *Census) Add(r capture.FlowRecord) {
	s, seen := c.servers[r.Server]
	if !seen {
		s = c.lookup(r.Server)
		c.servers[r.Server] = s
	}
	c.bucketBytes[s.bucket] += r.Bytes
	c.clients[r.Client] = struct{}{}
	c.flows++
	c.bytes += r.Bytes
	if r.Bytes < VideoFlowThreshold {
		c.control++
	}
	for i, mark := range flowSizeMarks {
		if r.Bytes <= mark {
			c.atMost[i]++
		}
	}
	c.sizes = append(c.sizes, r.Bytes)
}

// lookup classifies a server by its whois answer. The §IV rule keeps
// the Google AS and the monitored network's own AS, whatever Table II
// bucket that AS falls in.
func (c *Census) lookup(addr ipnet.Addr) censusServer {
	if c.reg == nil {
		return censusServer{bucket: bucketOthers}
	}
	as, ok := c.reg.Lookup(addr)
	if !ok {
		return censusServer{bucket: bucketOthers}
	}
	s := censusServer{google: as.Number == asdb.ASGoogle || as.Number == c.clientAS}
	switch as.Number {
	case asdb.ASGoogle:
		s.bucket = bucketGoogle
	case asdb.ASYouTubeEU:
		s.bucket = bucketYouTubeEU
	case c.clientAS:
		s.bucket = bucketSameAS
	default:
		s.bucket = bucketOthers
	}
	return s
}

// Summary returns the Table I row.
func (c *Census) Summary() TraceSummary {
	return TraceSummary{Flows: c.flows, Bytes: c.bytes, Servers: len(c.servers), Clients: len(c.clients)}
}

// Breakdown returns the Table II row: each AS bucket's share of the
// distinct servers and of the bytes.
func (c *Census) Breakdown() ASBreakdown {
	var servers [numBuckets]int
	for _, s := range c.servers {
		servers[s.bucket]++
	}
	share := func(b int) ASShare {
		if len(c.servers) == 0 || c.bytes == 0 {
			return ASShare{}
		}
		return ASShare{
			ServerFrac: float64(servers[b]) / float64(len(c.servers)),
			ByteFrac:   float64(c.bucketBytes[b]) / float64(c.bytes),
		}
	}
	return ASBreakdown{
		Google:     share(bucketGoogle),
		YouTubeEU:  share(bucketYouTubeEU),
		SameAS:     share(bucketSameAS),
		Others:     share(bucketOthers),
		TotalSrv:   len(c.servers),
		TotalBytes: c.bytes,
	}
}

// Servers returns every distinct server, sorted.
func (c *Census) Servers() []ipnet.Addr {
	return c.serverSet(func(censusServer) bool { return true })
}

// GoogleServers returns the distinct servers of the §IV Google subset
// (see GoogleIter), sorted.
func (c *Census) GoogleServers() []ipnet.Addr {
	return c.serverSet(func(s censusServer) bool { return s.google })
}

func (c *Census) serverSet(keep func(censusServer) bool) []ipnet.Addr {
	out := make([]ipnet.Addr, 0, len(c.servers))
	for a, s := range c.servers {
		if keep(s) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FlowSizes is Fig 4 for one dataset: the flow-size CDF read at 10 kB,
// 1 MB and 10 MB, the control flows under the 1000-byte kink, and the
// median size.
type FlowSizes struct {
	Flows int
	// Control counts the flows under VideoFlowThreshold.
	Control int
	// AtMost counts the flows of at most 1e4, 1e6 and 1e7 bytes.
	AtMost [len(flowSizeMarks)]int
	// Median is the nearest-rank median size, the sample
	// stats.CDF.Median picks; 0 when there are no flows.
	Median int64
}

// FlowSizes returns the Fig 4 numbers. The median is selected in
// expected linear time, reordering the kept sizes.
func (c *Census) FlowSizes() FlowSizes {
	fs := FlowSizes{Flows: c.flows, Control: c.control, AtMost: c.atMost}
	if len(c.sizes) > 0 {
		fs.Median = selectKth(c.sizes, (len(c.sizes)-1)/2)
	}
	return fs
}

// selectKth returns the k-th smallest value of xs (0-based),
// reordering xs. It is Hoare's quickselect with a median-of-three
// pivot and a three-way partition, so runs of equal values cost one
// pass each. An input that defeats the pivot rule for 2·log2(n) rounds
// has what is left of it sorted instead, so no input costs more than
// O(n log n).
func selectKth(xs []int64, k int) int64 {
	return selectKthRounds(xs, k, 2*bits.Len(uint(len(xs))))
}

// selectKthRounds is selectKth with the round budget given.
func selectKthRounds(xs []int64, k, rounds int) int64 {
	lo, hi := 0, len(xs)-1
	for ; lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			return xs[k]
		}
		mid := lo + (hi-lo)/2
		p := median3(xs[lo], xs[mid], xs[hi])
		// Partition xs[lo..hi] into < p, == p, > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case xs[i] < p:
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case xs[i] > p:
				xs[i], xs[gt] = xs[gt], xs[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return xs[k]
}

func median3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
