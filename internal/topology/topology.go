// Package topology defines the simulated world: data centers and their
// server fleets, vantage-point networks with internal subnets and local
// DNS servers, measurement landmarks, and the address/AS plan tying
// them together. BuildPaperWorld constructs the world matching the
// paper's measurement setting.
package topology

import (
	"fmt"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
)

// DataCenterID indexes a data center within a World.
type DataCenterID int

// ServerID indexes a server within a World (global, across DCs).
type ServerID int

// LDNSID indexes a local DNS server within a World.
type LDNSID int

// ServerClass distinguishes the CDN generations observed in the paper.
type ServerClass int

// Server classes. ClassGoogle is the post-2009 Google CDN serving
// ~99% of bytes; ClassLegacyEU is the residual YouTube-EU (AS 43515)
// infrastructure; ClassThirdParty stands for caches still reachable in
// transit ASes (CW, GBLX).
const (
	ClassGoogle ServerClass = iota + 1
	ClassLegacyEU
	ClassThirdParty
)

// String implements fmt.Stringer.
func (c ServerClass) String() string {
	switch c {
	case ClassGoogle:
		return "google"
	case ClassLegacyEU:
		return "legacy-eu"
	case ClassThirdParty:
		return "third-party"
	default:
		return "invalid"
	}
}

// Server is one content server.
type Server struct {
	ID    ServerID
	Addr  ipnet.Addr
	DC    DataCenterID
	Class ServerClass
	// Capacity is the number of concurrent sessions the server handles
	// before application-layer redirection kicks in (paper §VII-C).
	Capacity int
}

// DataCenter is a co-located group of servers; the paper's analysis
// aggregates servers into data centers by geolocation city.
type DataCenter struct {
	ID   DataCenterID
	City geo.City
	AS   asdb.AS
	// Class distinguishes Google-operated sites (participating in DNS
	// selection) from legacy/third-party pools that only appear via
	// quirk paths.
	Class ServerClass
	// Servers lists the fleet of this DC.
	Servers []*Server
	// DNSCapacity is the concurrent-video-flow level above which the
	// authoritative DNS starts spilling resolutions to other DCs
	// (paper §VII-A). Zero means effectively unbounded.
	DNSCapacity int
	// Internal marks a data center deployed inside an ISP's own
	// network (the EU2 case, Table II "Same AS").
	Internal bool

	// ep caches the value Endpoint returns. BuildPaperWorld seals it
	// after assembly so the selector's RTT rankings never re-render the
	// ID string; hand-assembled DCs (tests) fall back to rendering.
	ep netmodel.Endpoint
}

// Endpoint returns the DC's network endpoint for latency computations.
// The selector's RTT rankings call it inside sort comparisons, hence
// the cache.
func (dc *DataCenter) Endpoint() netmodel.Endpoint {
	if dc.ep.ID == "" {
		return dc.renderEndpoint()
	}
	return dc.ep
}

// renderEndpoint builds the endpoint value from scratch — the cold
// path behind the Endpoint cache. Kept out of line so its Sprintf
// never lands on Endpoint's inlining budget or allocation contract.
//
//go:noinline
func (dc *DataCenter) renderEndpoint() netmodel.Endpoint {
	return netmodel.Endpoint{
		ID:     fmt.Sprintf("dc-%d-%s", dc.ID, dc.City.Name),
		Loc:    dc.City.Point,
		Access: netmodel.AccessDataCenter,
	}
}

// Subnet is an internal subnet of a vantage-point network. Clients in
// a subnet share a local DNS server; the paper's Fig. 12 shows one
// campus subnet (Net-3) whose LDNS receives a different preferred DC.
type Subnet struct {
	Name   string
	Prefix ipnet.Prefix
	LDNS   LDNSID
	// Weight is the fraction of the vantage point's request volume
	// originating from this subnet.
	Weight float64
}

// LDNS is a local DNS resolver as seen by the authoritative DNS.
type LDNS struct {
	ID   LDNSID
	Name string
	Addr ipnet.Addr
	// VantagePoint is the index of the owning VP in World.VantagePoints.
	VantagePoint int
}

// VantagePoint is one monitored network: a campus or an ISP PoP with a
// Tstat-style probe on its access link.
type VantagePoint struct {
	Name   string
	City   geo.City
	Access netmodel.AccessTech
	AS     asdb.AS
	// GatewayCity, when non-nil, is the peering city all wide-area
	// traffic detours through (drives the RTT/distance divergence of
	// Fig. 8).
	GatewayCity *geo.City
	Prefix      ipnet.Prefix
	Subnets     []*Subnet
	// NumClients is the client population (Table I).
	NumClients int
	// WeeklySessions is the target number of video sessions generated
	// over one simulated week at full scale.
	WeeklySessions int
	// DiurnalPeakHour is the local hour of peak demand.
	DiurnalPeakHour float64
	// DiurnalMinFrac is the night/peak demand ratio.
	DiurnalMinFrac float64
	// LegacyProb is the probability a session is served by the legacy
	// YouTube-EU infrastructure (Table II).
	LegacyProb float64
	// ThirdPartyProb is the probability a session is served by a
	// third-party-AS cache (Table II "Others").
	ThirdPartyProb float64
	// SizeScale multiplies sampled flow sizes, capturing per-network
	// differences in resolution mix and watch behaviour (Table I byte
	// volumes).
	SizeScale float64
	// TailForeignProb is the probability that a tail (unreplicated)
	// video requested from this network originates on another
	// continent, forcing a cross-continent first access (Table III's
	// ≥10% foreign servers; the PlanetLab experiment of §VII-C).
	TailForeignProb float64
	// ForeignWeights distributes foreign tail origins over continents.
	ForeignWeights map[geo.Continent]float64
}

// HomeContinent returns the continent the vantage point sits on.
func (vp *VantagePoint) HomeContinent() geo.Continent { return vp.City.Continent }

// Endpoint returns the VP's network endpoint (clients collapse to the
// PoP position at the latency scales of interest).
func (vp *VantagePoint) Endpoint() netmodel.Endpoint {
	e := netmodel.Endpoint{
		ID:     "vp-" + vp.Name,
		Loc:    vp.City.Point,
		Access: vp.Access,
	}
	if vp.GatewayCity != nil {
		gw := vp.GatewayCity.Point
		e.Gateway = &gw
	}
	return e
}

// Landmark is a measurement host with known position, used by CBG.
type Landmark struct {
	Name string
	City string
	Loc  geo.Point
}

// Endpoint returns the landmark's network endpoint.
func (l *Landmark) Endpoint() netmodel.Endpoint {
	return netmodel.Endpoint{ID: "lm-" + l.Name, Loc: l.Loc, Access: netmodel.AccessBackbone}
}

// World is the complete simulated universe.
type World struct {
	DataCenters   []*DataCenter
	Servers       []*Server // all servers, indexed by ServerID
	VantagePoints []*VantagePoint
	LDNSes        []*LDNS
	Landmarks     []*Landmark
	Registry      *asdb.Registry
	Net           *netmodel.Model
	// PreferredOverrides pins specific LDNSes to a preferred data
	// center other than their RTT-best one (the Net-3 mechanism of
	// paper §VII-B).
	PreferredOverrides map[LDNSID]DataCenterID
	// Config records the parameters this world was built with.
	Config PaperConfig

	byAddr map[ipnet.Addr]*Server
}

// ServerByAddr resolves a server IP seen in a trace back to the server
// object. Only the simulator side uses this; analysis code must treat
// addresses as opaque.
func (w *World) ServerByAddr(a ipnet.Addr) (*Server, bool) {
	s, ok := w.byAddr[a]
	return s, ok
}

// DC returns the data center with the given ID.
func (w *World) DC(id DataCenterID) *DataCenter { return w.DataCenters[id] }

// Server returns the server with the given ID.
func (w *World) Server(id ServerID) *Server { return w.Servers[id] }

// VPIndex returns the index of the named vantage point, or -1.
func (w *World) VPIndex(name string) int {
	for i, vp := range w.VantagePoints {
		if vp.Name == name {
			return i
		}
	}
	return -1
}

// GoogleDCs returns the IDs of all Google-class data centers (the DNS
// selection pool), including the ISP-internal one.
func (w *World) GoogleDCs() []DataCenterID {
	var out []DataCenterID
	for _, dc := range w.DataCenters {
		if dc.Class == ClassGoogle {
			out = append(out, dc.ID)
		}
	}
	return out
}

// ServersOfClass returns all servers of the given class.
func (w *World) ServersOfClass(c ServerClass) []*Server {
	var out []*Server
	for _, s := range w.Servers {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// addServer registers a server and indexes its address.
func (w *World) addServer(s *Server) {
	s.ID = ServerID(len(w.Servers))
	w.Servers = append(w.Servers, s)
	if w.byAddr == nil {
		w.byAddr = make(map[ipnet.Addr]*Server)
	}
	w.byAddr[s.Addr] = s
	if s.DC >= 0 {
		dc := w.DataCenters[s.DC]
		dc.Servers = append(dc.Servers, s)
	}
}

// Validate performs internal consistency checks and returns the first
// problem found. A World that fails validation would silently corrupt
// experiments, so callers should treat an error as fatal.
func (w *World) Validate() error {
	if len(w.DataCenters) == 0 {
		return fmt.Errorf("topology: no data centers")
	}
	for i, dc := range w.DataCenters {
		if dc.ID != DataCenterID(i) {
			return fmt.Errorf("topology: DC %d has ID %d", i, dc.ID)
		}
		if len(dc.Servers) == 0 {
			return fmt.Errorf("topology: DC %s has no servers", dc.City.Name)
		}
	}
	seen := make(map[ipnet.Addr]bool, len(w.Servers))
	for i, s := range w.Servers {
		if s.ID != ServerID(i) {
			return fmt.Errorf("topology: server %d has ID %d", i, s.ID)
		}
		if seen[s.Addr] {
			return fmt.Errorf("topology: duplicate server address %s", s.Addr)
		}
		seen[s.Addr] = true
	}
	for _, vp := range w.VantagePoints {
		total := 0.0
		for _, sn := range vp.Subnets {
			total += sn.Weight
			if int(sn.LDNS) >= len(w.LDNSes) {
				return fmt.Errorf("topology: subnet %s/%s references unknown LDNS", vp.Name, sn.Name)
			}
		}
		if total < 0.999 || total > 1.001 {
			return fmt.Errorf("topology: subnet weights of %s sum to %f", vp.Name, total)
		}
	}
	return nil
}
