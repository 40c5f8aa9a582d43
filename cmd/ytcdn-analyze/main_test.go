package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/ipnet"
	"github.com/ytcdn-sim/ytcdn/internal/tracestore"
)

// rowsByDataset splits the analyzer's output into its header and one
// row per dataset, keyed by the dataset name.
func rowsByDataset(t *testing.T, out string) (string, map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a header and at least one row, got %q", out)
	}
	rows := make(map[string]string)
	for _, l := range lines[1:] {
		rows[strings.Fields(l)[0]] = l
	}
	return lines[0], rows
}

// TestStoreMatchesTSV writes the same records both as a TSV trace and
// as a trace store, and requires both inputs to print the same row for
// every dataset at every gap. The records are one study's, and a
// hand-built pair of flows of one (client, VideoID) that both start at
// 10 s, written in that order: the first ends at 20 s, the second at
// 5 s, before it starts. The pair is one session at every gap, because
// the first flow's end covers the second's start; a sessionizer that
// re-sorts equal starts by end splits it at gaps below 5 s.
func TestStoreMatchesTSV(t *testing.T) {
	dir := t.TempDir()
	writeTSV := func(name string, record func(capture.Sink) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ws := capture.NewWriterSink(f)
		if err := record(ws); err != nil {
			t.Fatal(err)
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	studyStore := filepath.Join(dir, "study-store")
	studyTSV := writeTSV("study.tsv", func(ws capture.Sink) error {
		_, err := ytcdn.Run(ytcdn.Options{
			Scale:     0.02,
			Span:      2 * 24 * time.Hour,
			Store:     &ytcdn.StoreOptions{Dir: studyStore},
			ExtraSink: ws,
		})
		return err
	})

	pairStore := filepath.Join(dir, "pair-store")
	pairTSV := writeTSV("pair.tsv", func(ws capture.Sink) error {
		sw, err := tracestore.NewWriter(pairStore, tracestore.Options{})
		if err != nil {
			return err
		}
		client, server := ipnet.MustParseAddr("10.0.0.1"), ipnet.MustParseAddr("173.194.0.1")
		for _, end := range []time.Duration{20 * time.Second, 5 * time.Second} {
			r := capture.FlowRecord{
				Client: client, Server: server, Start: 10 * time.Second, End: end,
				Bytes: 1 << 20, VideoID: "abcdefghijk", Resolution: "360p",
			}
			sw.Record("EU1-ADSL", r)
			ws.Record("EU1-ADSL", r)
		}
		return sw.Close()
	})

	// sessions, when set, is the EU1-ADSL session count both inputs
	// must print.
	for _, in := range []struct{ name, tsv, store, sessions string }{
		{"study", studyTSV, studyStore, ""},
		{"end before start", pairTSV, pairStore, "1"},
	} {
		for _, gap := range []time.Duration{0, time.Second, time.Minute} {
			var tsv, store bytes.Buffer
			if err := analyzeTSV(&tsv, in.tsv, gap); err != nil {
				t.Fatal(err)
			}
			if err := analyzeStore(&store, in.store, gap); err != nil {
				t.Fatal(err)
			}
			tsvHeader, tsvRows := rowsByDataset(t, tsv.String())
			storeHeader, storeRows := rowsByDataset(t, store.String())
			if tsvHeader != storeHeader {
				t.Errorf("%s T=%v: headers differ:\n tsv   %q\n store %q", in.name, gap, tsvHeader, storeHeader)
			}
			if len(tsvRows) != len(storeRows) {
				t.Fatalf("%s T=%v: %d datasets from the TSV, %d from the store", in.name, gap, len(tsvRows), len(storeRows))
			}
			for name, want := range tsvRows {
				if got := storeRows[name]; got != want {
					t.Errorf("%s T=%v %s:\n tsv   %q\n store %q", in.name, gap, name, want, got)
				}
			}
			if in.sessions != "" {
				if f := strings.Fields(tsvRows["EU1-ADSL"]); len(f) < 10 || f[9] != in.sessions {
					t.Errorf("%s T=%v: EU1-ADSL row %q, want %s sessions", in.name, gap, tsvRows["EU1-ADSL"], in.sessions)
				}
			}
		}
	}
}

// TestRejectsNegativeGap runs the built binary: a negative -t is a
// usage error, exit status 2, raised before the input is opened, so a
// missing input path must not be what it reports. -t 0 stays valid: it
// splits a session at any gap, so two flows 500 ms apart are two
// sessions, where the default 1 s gap makes them one.
func TestRejectsNegativeGap(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ytcdn-analyze")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ytcdn-analyze: %v\n%s", err, out)
	}
	tsvPath := filepath.Join(dir, "traces.tsv")
	var buf bytes.Buffer
	ws := capture.NewWriterSink(&buf)
	client, server := ipnet.MustParseAddr("10.0.0.1"), ipnet.MustParseAddr("173.194.0.1")
	for _, start := range []time.Duration{0, 1500 * time.Millisecond} {
		ws.Record("EU1-ADSL", capture.FlowRecord{
			Client: client, Server: server, Start: start, End: start + time.Second,
			Bytes: 1 << 20, VideoID: "abcdefghijk", Resolution: "360p",
		})
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tsvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"-t", "-1s", filepath.Join(dir, "missing.tsv")},
		{"-t", "-1ns", tsvPath},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit status 2, got %v\nstderr: %s", args, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "-t must not be negative") || strings.Contains(msg, "no such file") {
			t.Errorf("%v: want an early usage error, got stderr:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: rejected run printed %q", args, stdout.String())
		}
	}

	sessions := func(gap string) string {
		out, err := exec.Command(bin, "-t", gap, tsvPath).Output()
		if err != nil {
			t.Fatalf("-t %s: %v", gap, err)
		}
		_, rows := rowsByDataset(t, string(out))
		fields := strings.Fields(rows["EU1-ADSL"])
		if len(fields) < 10 {
			t.Fatalf("-t %s: no EU1-ADSL row in %q", gap, out)
		}
		return fields[9]
	}
	if got := sessions("0"); got != "2" {
		t.Errorf("-t 0: %s sessions, want 2", got)
	}
	if got := sessions("1s"); got != "1" {
		t.Errorf("-t 1s: %s sessions, want 1", got)
	}
}
