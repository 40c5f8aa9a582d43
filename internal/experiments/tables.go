package experiments

import (
	"fmt"
	"strings"

	"github.com/ytcdn-sim/ytcdn/internal/analysis"
)

// TableIRow is one dataset's traffic summary.
type TableIRow struct {
	Dataset string
	Flows   int
	GB      float64
	Servers int
	Clients int
}

// TableIResult reproduces Table I.
type TableIResult struct {
	Rows []TableIRow
}

// TableI computes the traffic summary of every dataset from its
// census.
func (h *Harness) TableI() (*TableIResult, error) {
	names := h.DatasetNames()
	cs, err := h.censuses(names)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{}
	for i, name := range names {
		s := cs[i].summary
		res.Rows = append(res.Rows, TableIRow{
			Dataset: name,
			Flows:   s.Flows,
			GB:      float64(s.Bytes) / 1e9,
			Servers: s.Servers,
			Clients: s.Clients,
		})
	}
	return res, nil
}

// Render formats the table.
func (r *TableIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: TRAFFIC SUMMARY FOR THE DATASETS\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %9s %9s\n", "Dataset", "YouTube flows", "Volume [GB]", "#Servers", "#Clients")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %13d %12.2f %9d %9d\n", row.Dataset, row.Flows, row.GB, row.Servers, row.Clients)
	}
	return b.String()
}

// TableIIRow is one dataset's per-AS breakdown (percentages).
type TableIIRow struct {
	Dataset   string
	Breakdown analysis.ASBreakdown
}

// TableIIResult reproduces Table II.
type TableIIResult struct {
	Rows []TableIIRow
}

// TableII computes the whois-based AS attribution of servers and
// bytes from each dataset's census.
func (h *Harness) TableII() (*TableIIResult, error) {
	names := h.DatasetNames()
	cs, err := h.censuses(names)
	if err != nil {
		return nil, err
	}
	res := &TableIIResult{}
	for i, name := range names {
		res.Rows = append(res.Rows, TableIIRow{Dataset: name, Breakdown: cs[i].breakdown})
	}
	return res, nil
}

// Render formats the table.
func (r *TableIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: PERCENTAGE OF SERVERS AND BYTES RECEIVED PER AS\n")
	fmt.Fprintf(&b, "%-12s | %8s %8s | %8s %8s | %8s %8s | %8s %8s\n",
		"Dataset", "GOOGsrv", "GOOGbyt", "YTEUsrv", "YTEUbyt", "SAMEsrv", "SAMEbyt", "OTHsrv", "OTHbyt")
	for _, row := range r.Rows {
		bd := row.Breakdown
		fmt.Fprintf(&b, "%-12s | %7.1f%% %7.2f%% | %7.1f%% %7.2f%% | %7.1f%% %7.2f%% | %7.1f%% %7.2f%%\n",
			row.Dataset,
			bd.Google.ServerFrac*100, bd.Google.ByteFrac*100,
			bd.YouTubeEU.ServerFrac*100, bd.YouTubeEU.ByteFrac*100,
			bd.SameAS.ServerFrac*100, bd.SameAS.ByteFrac*100,
			bd.Others.ServerFrac*100, bd.Others.ByteFrac*100)
	}
	return b.String()
}

// TableIIIRow is one dataset's continent split of Google servers.
type TableIIIRow struct {
	Dataset string
	Counts  analysis.ContinentCounts
}

// TableIIIResult reproduces Table III.
type TableIIIResult struct {
	Rows []TableIIIRow
}

// TableIII geolocates every Google server seen per dataset and counts
// by continent.
func (h *Harness) TableIII() (*TableIIIResult, error) {
	locs, err := h.liveLocations()
	if err != nil {
		return nil, err
	}
	names := h.DatasetNames()
	cs, err := h.censuses(names)
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{}
	for i, name := range names {
		counts := analysis.CountAddrsByContinent(cs[i].google, locs)
		res.Rows = append(res.Rows, TableIIIRow{Dataset: name, Counts: counts})
	}
	return res, nil
}

// Render formats the table.
func (r *TableIIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III: GOOGLE SERVERS PER CONTINENT ON EACH DATASET\n")
	fmt.Fprintf(&b, "%-12s %11s %8s %8s\n", "Dataset", "N. America", "Europe", "Others")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %11d %8d %8d\n", row.Dataset, row.Counts.NorthAmerica, row.Counts.Europe, row.Counts.Others)
	}
	return b.String()
}
