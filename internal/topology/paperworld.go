package topology

import (
	"fmt"

	"github.com/ytcdn-sim/ytcdn/internal/asdb"
	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/netmodel"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
)

// Dataset names, matching the paper's Table I.
const (
	DatasetUSCampus  = "US-Campus"
	DatasetEU1Campus = "EU1-Campus"
	DatasetEU1ADSL   = "EU1-ADSL"
	DatasetEU1FTTH   = "EU1-FTTH"
	DatasetEU2       = "EU2"
)

// DatasetNames returns the five dataset names in the paper's order.
func DatasetNames() []string {
	return []string{DatasetUSCampus, DatasetEU1Campus, DatasetEU1ADSL, DatasetEU1FTTH, DatasetEU2}
}

// PaperConfig parameterizes BuildPaperWorld. All counts are full-scale;
// use Scale to shrink workloads for tests and benchmarks.
type PaperConfig struct {
	// Seed drives landmark placement and any other randomized layout.
	Seed int64
	// Scale multiplies per-VP weekly session counts (1.0 = paper scale).
	Scale float64
	// Servers per Google data center, by region. The paper observed
	// roughly 1464 North American, 769 European and 180 other-continent
	// Google servers across datasets (Table III), which these defaults
	// reproduce: 13*113, 14*56, 6*30.
	ServersPerDCNA    int
	ServersPerDCEU    int
	ServersPerDCOther int
	// LegacyServers / ThirdPartyServers size the residual YouTube-EU
	// (AS 43515) and transit-AS pools (Table II).
	LegacyServers     int
	ThirdPartyServers int
	// GoogleServerCapacity is the concurrent-session threshold above
	// which a server issues application-layer redirects (paper §VII-C).
	GoogleServerCapacity int
	// EU2InternalDNSCapacity is the concurrent-flow capacity of the
	// data center inside the EU2 ISP; exceeding it triggers DNS-level
	// load balancing (paper §VII-A).
	EU2InternalDNSCapacity int
	// EU1PreferredDNSCapacity bounds the EU1 preferred DC (Milan),
	// producing the mild direct-to-non-preferred DNS share of Fig 10a.
	EU1PreferredDNSCapacity int
	// USPreferredDNSCapacity bounds the US-Campus preferred DC.
	USPreferredDNSCapacity int
}

// DefaultPaperConfig returns the calibrated full-scale configuration.
func DefaultPaperConfig() PaperConfig {
	return PaperConfig{
		Seed:                    20100904,
		Scale:                   1.0,
		ServersPerDCNA:          113,
		ServersPerDCEU:          56,
		ServersPerDCOther:       30,
		LegacyServers:           520,
		ThirdPartyServers:       120,
		GoogleServerCapacity:    10,
		EU2InternalDNSCapacity:  52,
		EU1PreferredDNSCapacity: 320,
		USPreferredDNSCapacity:  390,
	}
}

// normalize fills zero fields with defaults so tests can specify only
// what they care about.
func (c PaperConfig) normalize() PaperConfig {
	d := DefaultPaperConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.ServersPerDCNA == 0 {
		c.ServersPerDCNA = d.ServersPerDCNA
	}
	if c.ServersPerDCEU == 0 {
		c.ServersPerDCEU = d.ServersPerDCEU
	}
	if c.ServersPerDCOther == 0 {
		c.ServersPerDCOther = d.ServersPerDCOther
	}
	if c.LegacyServers == 0 {
		c.LegacyServers = d.LegacyServers
	}
	if c.ThirdPartyServers == 0 {
		c.ThirdPartyServers = d.ThirdPartyServers
	}
	if c.GoogleServerCapacity == 0 {
		c.GoogleServerCapacity = d.GoogleServerCapacity
	}
	if c.EU2InternalDNSCapacity == 0 {
		c.EU2InternalDNSCapacity = d.EU2InternalDNSCapacity
	}
	if c.EU1PreferredDNSCapacity == 0 {
		c.EU1PreferredDNSCapacity = d.EU1PreferredDNSCapacity
	}
	if c.USPreferredDNSCapacity == 0 {
		c.USPreferredDNSCapacity = d.USPreferredDNSCapacity
	}
	return c
}

// Well-known ASes in the simulated world.
var (
	asGoogle    = asdb.AS{Number: asdb.ASGoogle, Name: "Google Inc."}
	asYouTubeEU = asdb.AS{Number: asdb.ASYouTubeEU, Name: "YouTube-EU"}
	asCW        = asdb.AS{Number: asdb.ASCW, Name: "CW"}
	asGBLX      = asdb.AS{Number: asdb.ASGBLX, Name: "GBLX"}
	asUSCampus  = asdb.AS{Number: 17, Name: "US-Campus"}
	asEU1Campus = asdb.AS{Number: 137, Name: "EU1-Campus"}
	asEU1ISP    = asdb.AS{Number: 3269, Name: "EU1-ISP"}
	asEU2ISP    = asdb.AS{Number: 5483, Name: "EU2-ISP"}
)

// BuildPaperWorld constructs the world of the paper: 33 Google-class
// data centers (13 US, 14 EU including one inside the EU2 ISP, 6
// elsewhere), legacy and third-party server pools, the five monitored
// networks, and 215 CBG landmarks.
func BuildPaperWorld(cfg PaperConfig) (*World, error) {
	cfg = cfg.normalize()
	w := &World{
		Registry:           asdb.NewRegistry(),
		Net:                netmodel.New(netmodel.DefaultConfig()),
		PreferredOverrides: make(map[LDNSID]DataCenterID),
		Config:             cfg,
	}

	if err := buildDataCenters(w, cfg); err != nil {
		return nil, err
	}
	if err := buildEdgePools(w, cfg); err != nil {
		return nil, err
	}
	if err := buildVantagePoints(w, cfg); err != nil {
		return nil, err
	}
	buildLandmarks(w, cfg)

	if err := w.Validate(); err != nil {
		return nil, err
	}
	// Seal the per-DC endpoint cache: the selector's RTT rankings call
	// Endpoint inside sort comparisons and must not render its ID
	// string there.
	for _, dc := range w.DataCenters {
		dc.ep = dc.renderEndpoint()
	}
	return w, nil
}

// scaleCap scales a full-scale capacity with the workload so that
// load-dependent mechanisms (DNS spill, hot-spot redirects) trigger at
// the same relative utilization at any Scale.
func scaleCap(capacity int, scale float64) int {
	v := int(float64(capacity)*scale + 0.5)
	if v < 3 {
		// Integer granularity would invent overload at tiny scales:
		// with a capacity of 1-2, ordinary Poisson coincidences of two
		// concurrent flows register as congestion even at night.
		v = 3
	}
	return v
}

// buildDataCenters creates the 33 Google-class data centers with their
// server fleets and address plan. Every default fleet (113, 56 or 30
// servers) fits under the 200-server cap, so each DC is exactly one
// /24 and the paper's /24-aggregation rule holds by construction.
func buildDataCenters(w *World, cfg PaperConfig) error {
	cities := geo.DataCenterCities()
	if len(cities) != 33 {
		return fmt.Errorf("topology: expected 33 DC cities, got %d", len(cities))
	}
	nextPrefix := 0
	for _, city := range cities {
		var nServers int
		switch city.Continent {
		case geo.NorthAmerica:
			nServers = cfg.ServersPerDCNA
		case geo.Europe:
			nServers = cfg.ServersPerDCEU
		default:
			nServers = cfg.ServersPerDCOther
		}

		dc := &DataCenter{
			ID:    DataCenterID(len(w.DataCenters)),
			City:  city,
			AS:    asGoogle,
			Class: ClassGoogle,
		}
		// The Budapest DC lives inside the EU2 ISP: its own AS, its
		// own address space, and a DNS capacity it exceeds at daytime.
		if city.Name == geo.Budapest.Name {
			dc.AS = asEU2ISP
			dc.Internal = true
			dc.DNSCapacity = scaleCap(cfg.EU2InternalDNSCapacity, cfg.Scale)
		}
		switch city.Name {
		case geo.Milan.Name:
			dc.DNSCapacity = scaleCap(cfg.EU1PreferredDNSCapacity, cfg.Scale)
		case geo.NewYork.Name:
			dc.DNSCapacity = scaleCap(cfg.USPreferredDNSCapacity, cfg.Scale)
		}
		w.DataCenters = append(w.DataCenters, dc)

		// Allocate servers from consecutive /24s, at most 200 per /24.
		// Every default fleet fits in one, so the analysis never has
		// to join two prefixes of one DC.
		remaining := nServers
		for remaining > 0 {
			n := remaining
			if n > 200 {
				n = 200
			}
			var base string
			if dc.Internal {
				base = fmt.Sprintf("84.116.%d.0/24", nextPrefix%250)
			} else {
				base = fmt.Sprintf("173.194.%d.0/24", nextPrefix%250)
			}
			nextPrefix++
			prefix := ipnet.MustParsePrefix(base)
			w.Registry.Register(prefix, dc.AS)
			alloc := ipnet.NewAllocator(prefix)
			for i := 0; i < n; i++ {
				addr, err := alloc.Next()
				if err != nil {
					return fmt.Errorf("topology: %w", err)
				}
				capacity := scaleCap(cfg.GoogleServerCapacity, cfg.Scale)
				if capacity < 2 {
					// A capacity of 1 makes every concurrent pair of
					// requests a "hot-spot" at reduced scales; keep
					// redirects tied to genuine bursts.
					capacity = 2
				}
				w.addServer(&Server{
					Addr:     addr,
					DC:       dc.ID,
					Class:    ClassGoogle,
					Capacity: capacity,
				})
			}
			remaining -= n
		}
	}
	return nil
}

// buildEdgePools creates the legacy YouTube-EU (AS 43515) and
// third-party (CW, GBLX) server pools. They are modelled as extra
// sites so traces contain their addresses, but they never participate
// in Google's DNS selection; only the per-VP legacy/third-party quirk
// paths reach them.
func buildEdgePools(w *World, cfg PaperConfig) error {
	type pool struct {
		city   geo.City
		as     asdb.AS
		class  ServerClass
		count  int
		prefix string
	}
	legacyPer := cfg.LegacyServers / 4
	tpPer := cfg.ThirdPartyServers / 4
	pools := []pool{
		{geo.Amsterdam, asYouTubeEU, ClassLegacyEU, legacyPer, "208.117.224.0/24"},
		{geo.London, asYouTubeEU, ClassLegacyEU, legacyPer, "208.117.225.0/24"},
		{geo.WashingtonDC, asYouTubeEU, ClassLegacyEU, legacyPer, "208.117.226.0/24"},
		{geo.MountainView, asYouTubeEU, ClassLegacyEU, cfg.LegacyServers - 3*legacyPer, "208.117.227.0/24"},
		{geo.London, asCW, ClassThirdParty, tpPer, "166.49.128.0/24"},
		{geo.NewYork, asCW, ClassThirdParty, tpPer, "166.49.129.0/24"},
		{geo.Frankfurt, asGBLX, ClassThirdParty, tpPer, "64.214.0.0/24"},
		{geo.Dallas, asGBLX, ClassThirdParty, cfg.ThirdPartyServers - 3*tpPer, "64.214.1.0/24"},
	}
	for _, p := range pools {
		dc := &DataCenter{
			ID:    DataCenterID(len(w.DataCenters)),
			City:  p.city,
			AS:    p.as,
			Class: p.class,
		}
		w.DataCenters = append(w.DataCenters, dc)
		prefix := ipnet.MustParsePrefix(p.prefix)
		w.Registry.Register(prefix, p.as)
		alloc := ipnet.NewAllocator(prefix)
		for i := 0; i < p.count; i++ {
			addr, err := alloc.Next()
			if err != nil {
				return fmt.Errorf("topology: %w", err)
			}
			w.addServer(&Server{
				Addr:     addr,
				DC:       dc.ID,
				Class:    p.class,
				Capacity: cfg.GoogleServerCapacity,
			})
		}
	}
	return nil
}

// buildVantagePoints creates the five monitored networks of Table I,
// their internal subnets, and their local DNS servers, including the
// US-Campus Net-3 LDNS whose preferred data center differs (Fig 12).
func buildVantagePoints(w *World, cfg PaperConfig) error {
	newLDNS := func(name string, addr string, vpIdx int) LDNSID {
		id := LDNSID(len(w.LDNSes))
		w.LDNSes = append(w.LDNSes, &LDNS{
			ID:           id,
			Name:         name,
			Addr:         ipnet.MustParseAddr(addr),
			VantagePoint: vpIdx,
		})
		return id
	}
	scale := func(n int) int { return int(float64(n) * cfg.Scale) }

	// --- US-Campus -------------------------------------------------
	// A midwest campus whose ISP hands traffic off in New York, so its
	// lowest-RTT DC (New York) is only the sixth closest (Fig 8).
	nyGW := geo.NewYork
	usIdx := 0
	usLDNSa := newLDNS("us-ldns-a", "128.210.11.5", usIdx)
	usLDNSb := newLDNS("us-ldns-b", "128.210.11.6", usIdx)
	usLDNSc := newLDNS("us-ldns-c", "128.210.156.4", usIdx) // Net-3's
	us := &VantagePoint{
		Name:        DatasetUSCampus,
		City:        geo.WestLafayette,
		Access:      netmodel.AccessCampus,
		AS:          asUSCampus,
		GatewayCity: &nyGW,
		Prefix:      ipnet.MustParsePrefix("128.210.0.0/16"),
		Subnets: []*Subnet{
			{Name: "Net-1", Prefix: ipnet.MustParsePrefix("128.210.0.0/19"), LDNS: usLDNSa, Weight: 0.31},
			{Name: "Net-2", Prefix: ipnet.MustParsePrefix("128.210.32.0/19"), LDNS: usLDNSa, Weight: 0.26},
			{Name: "Net-3", Prefix: ipnet.MustParsePrefix("128.210.64.0/19"), LDNS: usLDNSc, Weight: 0.04},
			{Name: "Net-4", Prefix: ipnet.MustParsePrefix("128.210.96.0/19"), LDNS: usLDNSb, Weight: 0.21},
			{Name: "Net-5", Prefix: ipnet.MustParsePrefix("128.210.128.0/19"), LDNS: usLDNSb, Weight: 0.18},
		},
		NumClients:      20443,
		WeeklySessions:  scale(648000),
		DiurnalPeakHour: 15,
		DiurnalMinFrac:  0.12,
		LegacyProb:      0.009,
		ThirdPartyProb:  0.0003,
		SizeScale:       1.02,
		TailForeignProb: 0.005,
		ForeignWeights:  map[geo.Continent]float64{geo.Europe: 0.57, geo.Asia: 0.28, geo.SouthAmerica: 0.1, geo.Oceania: 0.05},
	}
	w.VantagePoints = append(w.VantagePoints, us)

	// --- EU1-Campus (Turin) ----------------------------------------
	eu1cIdx := 1
	eu1cLDNS := newLDNS("eu1c-ldns", "130.192.3.21", eu1cIdx)
	eu1c := &VantagePoint{
		Name:   DatasetEU1Campus,
		City:   geo.Turin,
		Access: netmodel.AccessCampus,
		AS:     asEU1Campus,
		Prefix: ipnet.MustParsePrefix("130.192.0.0/16"),
		Subnets: []*Subnet{
			{Name: "Net-1", Prefix: ipnet.MustParsePrefix("130.192.0.0/18"), LDNS: eu1cLDNS, Weight: 0.62},
			{Name: "Net-2", Prefix: ipnet.MustParsePrefix("130.192.64.0/18"), LDNS: eu1cLDNS, Weight: 0.38},
		},
		NumClients:      1113,
		WeeklySessions:  scale(100000),
		DiurnalPeakHour: 14,
		DiurnalMinFrac:  0.06,
		LegacyProb:      0.006,
		ThirdPartyProb:  0.004,
		SizeScale:       0.55,
		TailForeignProb: 0.011,
		ForeignWeights:  map[geo.Continent]float64{geo.NorthAmerica: 0.95, geo.Asia: 0.05},
	}
	w.VantagePoints = append(w.VantagePoints, eu1c)

	// --- EU1-ADSL (same ISP, Turin PoP) ----------------------------
	adslIdx := 2
	adslLDNSa := newLDNS("eu1adsl-ldns-a", "151.8.1.1", adslIdx)
	adslLDNSb := newLDNS("eu1adsl-ldns-b", "151.8.1.2", adslIdx)
	adsl := &VantagePoint{
		Name:   DatasetEU1ADSL,
		City:   geo.Turin,
		Access: netmodel.AccessADSL,
		AS:     asEU1ISP,
		Prefix: ipnet.MustParsePrefix("151.8.0.0/16"),
		Subnets: []*Subnet{
			{Name: "Net-1", Prefix: ipnet.MustParsePrefix("151.8.0.0/18"), LDNS: adslLDNSa, Weight: 0.41},
			{Name: "Net-2", Prefix: ipnet.MustParsePrefix("151.8.64.0/18"), LDNS: adslLDNSa, Weight: 0.33},
			{Name: "Net-3", Prefix: ipnet.MustParsePrefix("151.8.128.0/18"), LDNS: adslLDNSb, Weight: 0.26},
		},
		NumClients:      8348,
		WeeklySessions:  scale(650000),
		DiurnalPeakHour: 21,
		DiurnalMinFrac:  0.08,
		LegacyProb:      0.008,
		ThirdPartyProb:  0.003,
		SizeScale:       0.54,
		TailForeignProb: 0.016,
		ForeignWeights:  map[geo.Continent]float64{geo.NorthAmerica: 0.92, geo.Asia: 0.08},
	}
	w.VantagePoints = append(w.VantagePoints, adsl)

	// --- EU1-FTTH (same ISP, Milan PoP) ----------------------------
	ftthIdx := 3
	ftthLDNS := newLDNS("eu1ftth-ldns", "151.9.1.1", ftthIdx)
	ftth := &VantagePoint{
		Name:   DatasetEU1FTTH,
		City:   geo.Milan,
		Access: netmodel.AccessFTTH,
		AS:     asEU1ISP,
		Prefix: ipnet.MustParsePrefix("151.9.0.0/16"),
		Subnets: []*Subnet{
			{Name: "Net-1", Prefix: ipnet.MustParsePrefix("151.9.0.0/18"), LDNS: ftthLDNS, Weight: 0.55},
			{Name: "Net-2", Prefix: ipnet.MustParsePrefix("151.9.64.0/18"), LDNS: ftthLDNS, Weight: 0.45},
		},
		NumClients:      997,
		WeeklySessions:  scale(68000),
		DiurnalPeakHour: 21,
		DiurnalMinFrac:  0.08,
		LegacyProb:      0.008,
		ThirdPartyProb:  0.004,
		SizeScale:       0.66,
		TailForeignProb: 0.017,
		ForeignWeights:  map[geo.Continent]float64{geo.NorthAmerica: 0.70, geo.Asia: 0.30},
	}
	w.VantagePoints = append(w.VantagePoints, ftth)

	// --- EU2 (Budapest, largest ISP, in-network DC) ----------------
	eu2Idx := 4
	eu2LDNSa := newLDNS("eu2-ldns-a", "84.2.0.1", eu2Idx)
	eu2LDNSb := newLDNS("eu2-ldns-b", "84.2.0.2", eu2Idx)
	eu2 := &VantagePoint{
		Name:   DatasetEU2,
		City:   geo.Budapest,
		Access: netmodel.AccessADSL,
		AS:     asEU2ISP,
		Prefix: ipnet.MustParsePrefix("84.2.0.0/16"),
		Subnets: []*Subnet{
			{Name: "Net-1", Prefix: ipnet.MustParsePrefix("84.2.0.0/18"), LDNS: eu2LDNSa, Weight: 0.30},
			{Name: "Net-2", Prefix: ipnet.MustParsePrefix("84.2.64.0/18"), LDNS: eu2LDNSa, Weight: 0.27},
			{Name: "Net-3", Prefix: ipnet.MustParsePrefix("84.2.128.0/18"), LDNS: eu2LDNSb, Weight: 0.25},
			{Name: "Net-4", Prefix: ipnet.MustParsePrefix("84.2.192.0/18"), LDNS: eu2LDNSb, Weight: 0.18},
		},
		NumClients:      6552,
		WeeklySessions:  scale(380000),
		DiurnalPeakHour: 20,
		DiurnalMinFrac:  0.07,
		LegacyProb:      0.07,
		ThirdPartyProb:  0.006,
		SizeScale:       0.70,
		TailForeignProb: 0.009,
		ForeignWeights:  map[geo.Continent]float64{geo.NorthAmerica: 1.0},
	}
	w.VantagePoints = append(w.VantagePoints, eu2)

	// Register client prefixes in whois.
	for _, vp := range w.VantagePoints {
		w.Registry.Register(vp.Prefix, vp.AS)
	}

	// Preferred-DC overrides. The US-Campus Net-3 LDNS is mapped by
	// the authoritative DNS to Dallas instead of the RTT-best New York
	// DC (paper §VII-B: an assignment-policy variation, not a
	// misconfiguration). Dallas is well outside the five closest DCs,
	// preserving Fig 8's "closest five serve <2%" property.
	if dc := w.dcByCity(geo.Dallas.Name); dc != nil {
		w.PreferredOverrides[usLDNSc] = dc.ID
	} else {
		return fmt.Errorf("topology: Dallas data center missing")
	}
	return nil
}

// dcByCity returns the first Google-class DC in the named city.
func (w *World) dcByCity(name string) *DataCenter {
	for _, dc := range w.DataCenters {
		if dc.Class == ClassGoogle && dc.City.Name == name {
			return dc
		}
	}
	return nil
}

// buildLandmarks spreads 215 landmarks with the paper's continental
// mix (97 NA, 82 EU, 24 Asia, 8 SA, 3 Oceania, 1 Africa) by jittering
// positions around the seed cities of each continent.
func buildLandmarks(w *World, cfg PaperConfig) {
	counts := map[geo.Continent]int{
		geo.NorthAmerica: 97,
		geo.Europe:       82,
		geo.Asia:         24,
		geo.SouthAmerica: 8,
		geo.Oceania:      3,
		geo.Africa:       1,
	}
	seedsByCont := make(map[geo.Continent][]geo.City)
	for _, c := range geo.LandmarkSeedCities() {
		seedsByCont[c.Continent] = append(seedsByCont[c.Continent], c)
	}
	g := stats.NewRNG(cfg.Seed).Fork("landmarks")
	// Iterate continents in a fixed order for determinism.
	order := []geo.Continent{geo.NorthAmerica, geo.Europe, geo.Asia, geo.SouthAmerica, geo.Oceania, geo.Africa}
	for _, cont := range order {
		seeds := seedsByCont[cont]
		for i := 0; i < counts[cont]; i++ {
			seed := seeds[i%len(seeds)]
			bearing := g.Uniform(0, 360)
			dist := g.Uniform(5, 350)
			loc := geo.Destination(seed.Point, bearing, dist)
			w.Landmarks = append(w.Landmarks, &Landmark{
				Name: fmt.Sprintf("%s-%d", seed.Name, i),
				City: seed.Name,
				Loc:  loc,
			})
		}
	}
}
