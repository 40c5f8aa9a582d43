// Package obscli wires the observability layer into the command-line
// tools: the -metrics-addr / -report / -progress flags, the live HTTP
// endpoint, the periodic stderr progress line, and the end-of-run
// report artifact. It sits in the wall-clock plane (cmd layer), which
// is exactly where the obsplane lint rule allows it.
package obscli

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/ytcdn-sim/ytcdn/internal/obs"
	"github.com/ytcdn-sim/ytcdn/internal/obs/obshttp"
	"github.com/ytcdn-sim/ytcdn/internal/obs/profile"
	"github.com/ytcdn-sim/ytcdn/internal/obs/report"
)

// Flags holds the observability flag values of one command.
type Flags struct {
	MetricsAddr string
	ReportPath  string
	Progress    time.Duration
}

// Register installs the shared observability flags on the default
// flag set.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve /metrics (JSON), /debug/vars and /debug/pprof on this address while running (e.g. :9090; empty = off)")
	flag.StringVar(&f.ReportPath, "report", "",
		"write an end-of-run JSON report ("+report.Schema+") to this file (empty = off)")
	flag.DurationVar(&f.Progress, "progress", 0,
		"print a progress line to stderr at this interval (e.g. 2s; 0 = off)")
	return f
}

// Validate rejects a -report path the end-of-run write would fail on:
// its parent must be an existing directory, and the path must not name
// a directory. Commands call it with their other flag checks, so a bad
// path is a usage error before any work, disk write or listener.
func (f *Flags) Validate() error {
	if f.ReportPath == "" {
		return nil
	}
	if dir := filepath.Dir(f.ReportPath); !isDir(dir) {
		return fmt.Errorf("-report %s: %s is not an existing directory", f.ReportPath, dir)
	}
	if isDir(f.ReportPath) {
		return fmt.Errorf("-report %s is a directory", f.ReportPath)
	}
	return nil
}

// isDir reports whether path names an existing directory.
func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// Enabled reports whether any observability feature was requested.
func (f *Flags) Enabled() bool {
	return f.MetricsAddr != "" || f.ReportPath != "" || f.Progress > 0
}

// Session is the running observability state of one command. A nil
// *Session (observability off) is valid: every method is a no-op, and
// Registry/Profiler return nil — which downstream (ytcdn.Options,
// experiments.Input) interpret as "don't instrument".
type Session struct {
	name     string
	reg      *obs.Registry
	prof     *profile.Profiler
	server   *obshttp.Server
	stopProg func()
	flags    *Flags
	start    time.Time
}

// Start brings up whatever was requested: the registry and profiler
// always (when any flag is set), the HTTP endpoint and progress
// reporter if configured. name becomes the report's run name.
func (f *Flags) Start(name string) (*Session, error) {
	if !f.Enabled() {
		return nil, nil
	}
	s := &Session{
		name:  name,
		reg:   obs.NewRegistry(),
		flags: f,
		start: time.Now(),
	}
	s.prof = profile.NewProfiler(s.reg)
	profile.RegisterProcessGauges(s.reg, s.start)
	if f.MetricsAddr != "" {
		srv, err := obshttp.Serve(f.MetricsAddr, s.reg)
		if err != nil {
			return nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		s.server = srv
		log.Printf("metrics: serving /metrics on http://%s", srv.Addr())
	}
	if f.Progress > 0 {
		s.stopProg = profile.StartProgress(os.Stderr, s.reg, f.Progress)
	}
	return s, nil
}

// Registry returns the instrument registry (nil when observability is
// off) — pass it as ytcdn.Options.Metrics.
func (s *Session) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Profiler returns the phase profiler (nil when observability is off)
// — pass it as ytcdn.Options.Profiler.
func (s *Session) Profiler() *profile.Profiler {
	if s == nil {
		return nil
	}
	return s.prof
}

// Phase times a command-level pipeline phase (no-op when off).
func (s *Session) Phase(name string) func() {
	if s == nil {
		return func() {}
	}
	return s.prof.Phase(name)
}

// Close stops the progress reporter, writes the -report artifact (with
// the given run config), and shuts the HTTP endpoint down. Call it
// once, after the run finishes.
func (s *Session) Close(config map[string]string) error {
	if s == nil {
		return nil
	}
	if s.stopProg != nil {
		s.stopProg()
	}
	var err error
	if s.flags.ReportPath != "" {
		rep := report.New(s.name)
		for k, v := range config {
			rep.Set(k, v)
		}
		rep.Set("wall_seconds", fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
		rep.AddSnapshot(s.reg.Snapshot())
		if werr := rep.WriteFile(s.flags.ReportPath); werr != nil {
			err = werr
		} else {
			log.Printf("report: written to %s", s.flags.ReportPath)
		}
	}
	if s.server != nil {
		if cerr := s.server.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
