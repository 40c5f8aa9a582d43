package analysis

import (
	"sort"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
)

// ASShare is one row group of Table II: the share of distinct servers
// and of bytes attributed to an AS bucket.
type ASShare struct {
	ServerFrac float64
	ByteFrac   float64
}

// ASBreakdown is the Table II accounting for one dataset.
type ASBreakdown struct {
	Google     ASShare
	YouTubeEU  ASShare
	SameAS     ASShare
	Others     ASShare
	TotalSrv   int
	TotalBytes int64
}

// BreakdownByASIter attributes a trace's servers and bytes to the
// paper's four AS buckets via whois lookups, in one pass over the
// iterator with memory bounded by the distinct server set. clientAS is
// the AS of the monitored network (for the "Same AS" bucket). Each
// server's bucket is looked up once per pass.
func BreakdownByASIter(it capture.Iterator, reg *asdb.Registry, clientAS asdb.ASN) (ASBreakdown, error) {
	const (
		google = iota
		yteu
		same
		other
	)
	bucketOf := make(map[ipnet.Addr]int)
	var servers [4]int
	var bytes [4]int64
	var totalBytes int64
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		b, seen := bucketOf[r.Server]
		if !seen {
			b = other
			if as, ok := reg.Lookup(r.Server); ok {
				switch {
				case as.Number == asdb.ASGoogle:
					b = google
				case as.Number == asdb.ASYouTubeEU:
					b = yteu
				case as.Number == clientAS:
					b = same
				}
			}
			bucketOf[r.Server] = b
			servers[b]++
		}
		bytes[b] += r.Bytes
		totalBytes += r.Bytes
	}
	totalSrv := len(bucketOf)
	share := func(b int) ASShare {
		if totalSrv == 0 || totalBytes == 0 {
			return ASShare{}
		}
		return ASShare{
			ServerFrac: float64(servers[b]) / float64(totalSrv),
			ByteFrac:   float64(bytes[b]) / float64(totalBytes),
		}
	}
	return ASBreakdown{
		Google:     share(google),
		YouTubeEU:  share(yteu),
		SameAS:     share(same),
		Others:     share(other),
		TotalSrv:   totalSrv,
		TotalBytes: totalBytes,
	}, it.Err()
}

// GoogleIter applies the paper's §IV filter lazily, keeping only
// flows served from the Google AS or from the monitored network's own
// AS ("we only focus on accesses to video servers located in the
// Google AS; for the EU2 dataset, we include accesses to the data
// center located inside the corresponding ISP"). It consumes one
// upstream record at a time, so nothing is materialized. Each server
// is looked up once per iterator; the memo is bounded by the distinct
// server set.
func GoogleIter(it capture.Iterator, reg *asdb.Registry, clientAS asdb.ASN) capture.Iterator {
	keep := make(map[ipnet.Addr]bool)
	return capture.FilterIter(it, func(r capture.FlowRecord) bool {
		k, seen := keep[r.Server]
		if !seen {
			as, ok := reg.Lookup(r.Server)
			k = ok && (as.Number == asdb.ASGoogle || as.Number == clientAS)
			keep[r.Server] = k
		}
		return k
	})
}

// VideoIter narrows a stream to video flows (the ≥1000-byte side of
// the paper's classification cut), lazily.
func VideoIter(it capture.Iterator) capture.Iterator {
	return capture.FilterIter(it, IsVideoFlow)
}

// ContinentCounts is one Table III row: distinct servers per continent
// bucket.
type ContinentCounts struct {
	NorthAmerica int
	Europe       int
	Others       int
}

// CountAddrsByContinent classifies each server address of a
// deduplicated set by its estimated location (Table III). Addresses
// without a location are skipped.
func CountAddrsByContinent(addrs []ipnet.Addr, locs map[ipnet.Addr]geo.Point) ContinentCounts {
	var out ContinentCounts
	for _, a := range addrs {
		loc, ok := locs[a]
		if !ok {
			continue
		}
		switch geo.ContinentOf(loc) {
		case geo.NorthAmerica:
			out.NorthAmerica++
		case geo.Europe:
			out.Europe++
		default:
			out.Others++
		}
	}
	return out
}

// DCTraffic describes one inferred data center's traffic from a
// vantage point, with its active-measurement annotations.
type DCTraffic struct {
	Cluster    int
	Bytes      int64
	VideoFlows int
	// MinRTT is the smallest ping RTT to any member server, in
	// milliseconds (Fig 7).
	MinRTTMs float64
	// DistanceKm is the great-circle distance from the vantage point
	// to the cluster centroid (Fig 8).
	DistanceKm float64
}

// PreferredResult is the per-dataset outcome of the paper's §VI-B
// preferred-data-center analysis.
type PreferredResult struct {
	// PerDC is sorted by decreasing bytes.
	PerDC []DCTraffic
	// Preferred is the cluster index serving the most bytes.
	Preferred int
	// PreferredByteShare is its share of total bytes.
	PreferredByteShare float64
	// PreferredIsMinRTT reports whether the preferred DC is also the
	// lowest-RTT one.
	PreferredIsMinRTT bool
}

// FindPreferredIter identifies the preferred data center of a trace
// of video flows from byte volumes, annotating each cluster with min
// RTT (from rttMs, in milliseconds per server address) and distance
// from vpLoc. The per-DC byte and flow accounting consumes the iterator
// in one pass with memory bounded by the cluster count.
func FindPreferredIter(it capture.Iterator, m *DCMap, rttMs map[ipnet.Addr]float64, vpLoc geo.Point) (PreferredResult, error) {
	bytes := make([]int64, m.NumClusters())
	flows := make([]int, m.NumClusters())
	var total int64
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		dc, ok := m.DCOf(r.Server)
		if !ok {
			continue
		}
		bytes[dc] += r.Bytes
		flows[dc]++
		total += r.Bytes
	}
	res := PreferredResult{}
	for i := 0; i < m.NumClusters(); i++ {
		if flows[i] == 0 {
			continue
		}
		minRTT := -1.0
		for _, srv := range m.Cluster(i).Servers {
			if v, ok := rttMs[srv]; ok && (minRTT < 0 || v < minRTT) {
				minRTT = v
			}
		}
		res.PerDC = append(res.PerDC, DCTraffic{
			Cluster:    i,
			Bytes:      bytes[i],
			VideoFlows: flows[i],
			MinRTTMs:   minRTT,
			DistanceKm: geo.Distance(vpLoc, m.Centroid(i)),
		})
	}
	sort.Slice(res.PerDC, func(i, j int) bool { return res.PerDC[i].Bytes > res.PerDC[j].Bytes })
	if len(res.PerDC) == 0 {
		res.Preferred = -1
		return res, it.Err()
	}
	// The paper's rule (§VI-B): normally the dominant data center is
	// the preferred one; when no single DC dominates but two together
	// do (the EU2 case, >95% from two DCs), the one with the smallest
	// RTT is labelled preferred.
	prefIdx := 0
	if total > 0 && len(res.PerDC) >= 2 {
		top1 := float64(res.PerDC[0].Bytes) / float64(total)
		top2 := float64(res.PerDC[0].Bytes+res.PerDC[1].Bytes) / float64(total)
		if top1 < 0.6 && top2 > 0.8 &&
			res.PerDC[1].MinRTTMs >= 0 && res.PerDC[0].MinRTTMs >= 0 &&
			res.PerDC[1].MinRTTMs < res.PerDC[0].MinRTTMs {
			prefIdx = 1
		}
	}
	res.Preferred = res.PerDC[prefIdx].Cluster
	if total > 0 {
		res.PreferredByteShare = float64(res.PerDC[prefIdx].Bytes) / float64(total)
	}
	res.PreferredIsMinRTT = true
	for i, d := range res.PerDC {
		if i == prefIdx {
			continue
		}
		if d.MinRTTMs >= 0 && res.PerDC[prefIdx].MinRTTMs >= 0 && d.MinRTTMs < res.PerDC[prefIdx].MinRTTMs {
			res.PreferredIsMinRTT = false
		}
	}
	return res, it.Err()
}

// CumulativeByteCurve returns (x, cumulative byte fraction) points
// with clusters ordered by the given key (RTT for Fig 7, distance for
// Fig 8).
func CumulativeByteCurve(perDC []DCTraffic, key func(DCTraffic) float64) []struct{ X, F float64 } {
	sorted := make([]DCTraffic, len(perDC))
	copy(sorted, perDC)
	sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
	var total int64
	for _, d := range sorted {
		total += d.Bytes
	}
	out := make([]struct{ X, F float64 }, 0, len(sorted))
	var acc int64
	for _, d := range sorted {
		acc += d.Bytes
		out = append(out, struct{ X, F float64 }{X: key(d), F: float64(acc) / float64(total)})
	}
	return out
}
