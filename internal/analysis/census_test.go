package analysis

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// censusOf feeds recs to a census sized from their count.
func censusOf(reg *asdb.Registry, clientAS asdb.ASN, recs []capture.FlowRecord) *Census {
	c := NewCensus(reg, clientAS, len(recs))
	for _, r := range recs {
		c.Add(r)
	}
	return c
}

// referenceSummarizeIter is the Table I pass the census replaced, kept
// as its oracle.
func referenceSummarizeIter(it capture.Iterator) (TraceSummary, error) {
	servers := make(map[uint32]struct{})
	clients := make(map[uint32]struct{})
	var s TraceSummary
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		s.Flows++
		s.Bytes += r.Bytes
		servers[uint32(r.Server)] = struct{}{}
		clients[uint32(r.Client)] = struct{}{}
	}
	s.Servers = len(servers)
	s.Clients = len(clients)
	return s, it.Err()
}

// referenceBreakdownByASIter is the Table II pass the census replaced,
// kept as its oracle.
func referenceBreakdownByASIter(it capture.Iterator, reg *asdb.Registry, clientAS asdb.ASN) (ASBreakdown, error) {
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

// distinctServers returns the sorted distinct servers of a stream.
func distinctServers(t *testing.T, it capture.Iterator) []ipnet.Addr {
	t.Helper()
	seen := make(map[ipnet.Addr]bool)
	out := []ipnet.Addr{}
	for _, r := range collect(t, it) {
		if !seen[r.Server] {
			seen[r.Server] = true
			out = append(out, r.Server)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// censusRegistry routes 1/8 to Google, 2/8 to YouTube-EU, 3/8 to an
// ISP (AS 5483) and 4/8 to a transit AS; everything else is unrouted.
func censusRegistry() *asdb.Registry {
	reg := asdb.NewRegistry()
	reg.Register(ipnet.MustParsePrefix("1.0.0.0/8"), asdb.AS{Number: asdb.ASGoogle, Name: "Google"})
	reg.Register(ipnet.MustParsePrefix("2.0.0.0/8"), asdb.AS{Number: asdb.ASYouTubeEU, Name: "YT-EU"})
	reg.Register(ipnet.MustParsePrefix("3.0.0.0/8"), asdb.AS{Number: 5483, Name: "ISP"})
	reg.Register(ipnet.MustParsePrefix("4.0.0.0/8"), asdb.AS{Number: 1273, Name: "CW"})
	return reg
}

// checkCensus compares a census of recs with the passes it replaced:
// the reference Table I and II passes, the distinct servers of the
// trace and of its GoogleIter subset, and a stats.CDF of every flow
// size read at Fig 4's marks. A nil registry is compared with an empty
// one, which routes nothing either.
func checkCensus(t *testing.T, reg *asdb.Registry, clientAS asdb.ASN, recs []capture.FlowRecord, sizeHint int) {
	t.Helper()
	c := NewCensus(reg, clientAS, sizeHint)
	for _, r := range recs {
		c.Add(r)
	}
	if reg == nil {
		reg = asdb.NewRegistry()
	}

	wantSum, err := referenceSummarizeIter(capture.IterSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Summary(); got != wantSum {
		t.Errorf("Summary = %+v, reference %+v", got, wantSum)
	}
	wantBD, err := referenceBreakdownByASIter(capture.IterSlice(recs), reg, clientAS)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Breakdown(); got != wantBD {
		t.Errorf("Breakdown = %+v, reference %+v", got, wantBD)
	}
	if got, want := c.Servers(), distinctServers(t, capture.IterSlice(recs)); !reflect.DeepEqual(got, want) {
		t.Errorf("Servers = %v, want %v", got, want)
	}
	wantGoogle := distinctServers(t, GoogleIter(capture.IterSlice(recs), reg, clientAS))
	if got := c.GoogleServers(); !reflect.DeepEqual(got, wantGoogle) {
		t.Errorf("GoogleServers = %v, GoogleIter's servers %v", got, wantGoogle)
	}

	cdf := &stats.CDF{}
	control := 0
	for _, r := range recs {
		cdf.Add(float64(r.Bytes))
		if r.Bytes < VideoFlowThreshold {
			control++
		}
	}
	fs := c.FlowSizes()
	if fs.Flows != len(recs) || fs.Control != control {
		t.Errorf("FlowSizes flows %d control %d, want %d and %d", fs.Flows, fs.Control, len(recs), control)
	}
	if len(recs) == 0 {
		if fs != (FlowSizes{}) {
			t.Errorf("FlowSizes of no records = %+v", fs)
		}
		return
	}
	n := float64(fs.Flows)
	for i, mark := range []float64{1e4, 1e6, 1e7} {
		if got, want := float64(fs.AtMost[i])/n, cdf.At(mark); got != want {
			t.Errorf("F(%g) = %v, stats.CDF %v", mark, got, want)
		}
	}
	if got, want := float64(fs.Median), cdf.Median(); got != want {
		t.Errorf("median = %v, stats.CDF %v", got, want)
	}
}

// censusTrace decodes fuzzer bytes into records, four bytes each: a
// server across the five registry blocks, a client, and a size that is
// either one of the edge values (below, on and above each mark and
// the 1000-byte cut) or spread widely with many ties.
func censusTrace(data []byte) []capture.FlowRecord {
	edges := []int64{0, 1, 999, 1000, 1001, 9_999, 10_000, 10_001, 999_999, 1_000_000, 1_000_001,
		9_999_999, 10_000_000, 10_000_001, 1 << 40}
	var out []capture.FlowRecord
	for ; len(data) >= 4; data = data[4:] {
		size := int64(binary.BigEndian.Uint16(data[2:4]))
		if data[2]&0x80 == 0 {
			size = edges[int(data[3])%len(edges)]
		} else {
			size = (size & 0x7fff) * 1000
		}
		out = append(out, capture.FlowRecord{
			Server: ipnet.Addr(uint32(data[0]%5+1)<<24 | uint32(data[0]/5%4)),
			Client: ipnet.Addr(0x0A000000 + uint32(data[1]%16)),
			Bytes:  size,
		})
	}
	return out
}

// censusClientASes are the monitored networks the tests try: the ISP,
// Google and YouTube-EU themselves (where the §IV set and the Table II
// buckets part), a transit AS, and one the registry does not know.
var censusClientASes = []asdb.ASN{5483, asdb.ASGoogle, asdb.ASYouTubeEU, 1273, 0}

func TestCensusMatchesReference(t *testing.T) {
	flow := func(server string, client uint32, bytes int64) capture.FlowRecord {
		return capture.FlowRecord{Server: ipnet.MustParseAddr(server), Client: ipnet.Addr(client), Bytes: bytes}
	}
	ties := make([]capture.FlowRecord, 0, 5000)
	for i := 0; i < 5000; i++ {
		ties = append(ties, flow(fmt.Sprintf("%d.0.0.%d", i%5+1, i%7), uint32(i%11), int64(i%3)*1000))
	}
	g := rand.New(rand.NewSource(1))
	wide := make([]capture.FlowRecord, 0, 20000)
	for i := 0; i < 20000; i++ {
		wide = append(wide, flow(fmt.Sprintf("%d.1.%d.%d", g.Intn(6)+1, g.Intn(4), g.Intn(200)), uint32(g.Intn(300)), g.Int63n(50_000_000)))
	}
	cases := []struct {
		name string
		recs []capture.FlowRecord
	}{
		{"no records", nil},
		{"one record", []capture.FlowRecord{flow("1.0.0.1", 1, 4000)}},
		{"zero-byte flows", []capture.FlowRecord{flow("1.0.0.1", 1, 0), flow("2.0.0.1", 2, 0), flow("9.0.0.1", 1, 5e6)}},
		{"the 1000-byte cut", []capture.FlowRecord{flow("1.0.0.1", 1, 999), flow("1.0.0.1", 1, 1000), flow("3.0.0.1", 2, 999), flow("4.0.0.1", 1, 1000)}},
		{"the three marks", []capture.FlowRecord{
			flow("1.0.0.1", 1, 9_999), flow("1.0.0.2", 1, 10_000), flow("2.0.0.1", 1, 10_001),
			flow("3.0.0.1", 2, 999_999), flow("3.0.0.2", 2, 1_000_000), flow("4.0.0.1", 2, 1_000_001),
			flow("9.0.0.1", 3, 9_999_999), flow("1.0.0.3", 3, 10_000_000), flow("1.0.0.3", 3, 10_000_001),
		}},
		{"heavy ties", ties},
		{"wide sizes", wide},
	}
	for _, tc := range cases {
		for _, clientAS := range censusClientASes {
			for _, reg := range []*asdb.Registry{censusRegistry(), nil} {
				t.Run(fmt.Sprintf("%s/AS%d/registry=%t", tc.name, clientAS, reg != nil), func(t *testing.T) {
					checkCensus(t, reg, clientAS, tc.recs, len(tc.recs))
				})
			}
		}
	}
}

// TestCensusGoogleSetFollowsTheAS pins the §IV rule against the Table
// II bucket: in a network whose own AS is YouTube-EU, a YouTube-EU
// server is in the Google subset though Table II counts it as
// YouTube-EU, not "Same AS".
func TestCensusGoogleSetFollowsTheAS(t *testing.T) {
	recs := []capture.FlowRecord{
		{Server: ipnet.MustParseAddr("1.0.0.1"), Bytes: 100},
		{Server: ipnet.MustParseAddr("2.0.0.1"), Bytes: 100},
		{Server: ipnet.MustParseAddr("4.0.0.1"), Bytes: 100},
	}
	c := censusOf(censusRegistry(), asdb.ASYouTubeEU, recs)
	want := []ipnet.Addr{ipnet.MustParseAddr("1.0.0.1"), ipnet.MustParseAddr("2.0.0.1")}
	if got := c.GoogleServers(); !reflect.DeepEqual(got, want) {
		t.Errorf("GoogleServers = %v, want %v", got, want)
	}
	if bd := c.Breakdown(); bd.SameAS.ServerFrac != 0 || bd.YouTubeEU.ServerFrac == 0 {
		t.Errorf("Breakdown = %+v, want the YouTube-EU server in the YouTube-EU bucket", bd)
	}
}

// TestSelectKth checks the selection against a sort at every rank, on
// orders that trouble a quickselect (sorted, reversed, all equal,
// organ pipe, few distinct values), and with the round budget cut so
// that the sort fallback finishes the job.
func TestSelectKth(t *testing.T) {
	g := rand.New(rand.NewSource(2))
	inputs := map[string][]int64{"one": {7}}
	for _, n := range []int{2, 3, 10, 257} {
		var sorted, reversed, equal, organ, few, random []int64
		for i := 0; i < n; i++ {
			sorted = append(sorted, int64(i))
			reversed = append(reversed, int64(n-i))
			equal = append(equal, 5)
			organ = append(organ, int64(min(i, n-i)))
			few = append(few, int64(g.Intn(3)))
			random = append(random, g.Int63n(1000))
		}
		for name, xs := range map[string][]int64{"sorted": sorted, "reversed": reversed, "equal": equal,
			"organ": organ, "few": few, "random": random} {
			inputs[fmt.Sprintf("%s/%d", name, n)] = xs
		}
	}
	for name, xs := range inputs {
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, rounds := range []int{-1, 0, 1} {
			for k := range xs {
				work := append([]int64(nil), xs...)
				var got int64
				if rounds < 0 {
					got = selectKth(work, k)
				} else {
					got = selectKthRounds(work, k, rounds)
				}
				if got != want[k] {
					t.Fatalf("%s: rank %d with %d rounds = %d, want %d", name, k, rounds, got, want[k])
				}
			}
		}
	}
}

// FuzzCensusMatchesReference extends TestCensusMatchesReference to
// fuzzer-chosen traces (see censusTrace), monitored networks, size
// hints and a nil registry.
func FuzzCensusMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), false, uint16(0))
	f.Add([]byte{0, 0, 0, 3}, uint8(0), false, uint16(1))
	f.Add([]byte{0, 1, 0, 0, 1, 2, 0, 0, 4, 3, 0, 2, 5, 4, 0, 3}, uint8(2), false, uint16(4))
	f.Add([]byte{3, 1, 0, 4, 8, 2, 0, 5, 13, 3, 0, 6, 1, 4, 0, 7, 2, 5, 0, 8, 3, 6, 0, 9, 4, 7, 0, 10, 5, 8, 0, 11, 6, 9, 0, 12},
		uint8(1), true, uint16(2))
	f.Add([]byte{0, 0, 0x80, 1, 1, 1, 0x80, 1, 2, 2, 0x80, 1, 3, 3, 0x80, 2, 4, 4, 0x81, 0}, uint8(3), false, uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, clientSel uint8, nilRegistry bool, hint uint16) {
		recs := censusTrace(data)
		reg := censusRegistry()
		if nilRegistry {
			reg = nil
		}
		clientAS := censusClientASes[int(clientSel)%len(censusClientASes)]
		checkCensus(t, reg, clientAS, recs, int(hint)%(len(recs)+2))
	})
}
