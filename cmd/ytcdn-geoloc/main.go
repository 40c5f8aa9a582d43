// Command ytcdn-geoloc demonstrates the paper's §V server-geolocation
// comparison: it builds the world, geolocates every content server
// with CBG (215 landmarks, bestline calibration, disc intersection),
// contrasts the estimates with the static-database approach (which
// pins all Google space to Mountain View), and reports per-method
// error statistics against ground truth.
//
// Usage:
//
//	ytcdn-geoloc -servers 500
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/geo"
	"github.com/ytcdn-sim/ytcdn/internal/geoloc"
	"github.com/ytcdn-sim/ytcdn/internal/probe"
	"github.com/ytcdn-sim/ytcdn/internal/stats"
	"github.com/ytcdn-sim/ytcdn/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ytcdn-geoloc: ")

	nServers := flag.Int("servers", 300, "number of servers to geolocate")
	seed := flag.Int64("seed", 1, "random seed for measurement noise")
	flag.Parse()
	if *nServers < 1 {
		fmt.Fprintf(os.Stderr, "ytcdn-geoloc: -servers must be at least 1, got %d\n", *nServers)
		flag.Usage()
		os.Exit(2)
	}

	w, err := topology.BuildPaperWorld(topology.PaperConfig{Scale: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	prober := probe.New(w, stats.NewRNG(*seed))

	fmt.Fprintf(os.Stderr, "calibrating CBG on %d landmarks...\n", len(w.Landmarks))
	start := time.Now()
	cross := prober.CrossRTTMatrix(5, 1)
	cbg, err := geoloc.Calibrate(prober.LandmarkInfos(), func(i, j int) time.Duration { return cross[i][j] })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "calibration done in %v\n", time.Since(start).Round(time.Millisecond))

	staticDB := geoloc.NewMountainViewDB()
	cbgErr := &stats.CDF{}
	dbErr := &stats.CDF{}
	radius := &stats.CDF{}

	sweep := prober.LandmarkSweep()
	step := len(w.Servers) / *nServers
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(w.Servers); i += step {
		srv := w.Servers[i]
		truth := w.DC(srv.DC).City.Point

		rtts, err := sweep.RTTs(srv.Addr, 3)
		if err != nil {
			continue
		}
		region := cbg.Locate(rtts)
		cbgErr.Add(geo.Distance(region.Centroid, truth))
		radius.Add(region.RadiusKm)

		if loc, ok := staticDB.Locate(srv.Addr); ok {
			dbErr.Add(geo.Distance(loc, truth))
		}
	}

	fmt.Printf("\n%-22s %10s %10s %10s\n", "method", "median km", "p90 km", "max km")
	fmt.Printf("%-22s %10.1f %10.1f %10.1f\n", "CBG error", cbgErr.Median(), cbgErr.Quantile(0.9), cbgErr.Max())
	fmt.Printf("%-22s %10.1f %10.1f %10.1f\n", "static-DB error", dbErr.Median(), dbErr.Quantile(0.9), dbErr.Max())
	fmt.Printf("%-22s %10.1f %10.1f %10.1f\n", "CBG confidence radius", radius.Median(), radius.Quantile(0.9), radius.Max())
	fmt.Println("\nthe static database places every Google server in Mountain View;")
	fmt.Println("CBG recovers city-level positions (paper §V, Fig 3)")
}
