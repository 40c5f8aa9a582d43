package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
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

// TestStoreMatchesTSV writes one study both as a TSV trace and as a
// trace store, and requires the in-memory and the streaming analysis to
// print the same row for every dataset.
func TestStoreMatchesTSV(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	tsvPath := filepath.Join(dir, "traces.tsv")
	f, err := os.Create(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws := capture.NewWriterSink(f)
	if _, err := ytcdn.Run(ytcdn.Options{
		Scale:     0.02,
		Span:      2 * 24 * time.Hour,
		Store:     &ytcdn.StoreOptions{Dir: storeDir},
		ExtraSink: ws,
	}); err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, gap := range []time.Duration{time.Second, time.Minute} {
		var tsv, store bytes.Buffer
		if err := analyzeTSV(&tsv, tsvPath, gap); err != nil {
			t.Fatal(err)
		}
		if err := analyzeStore(&store, storeDir, gap); err != nil {
			t.Fatal(err)
		}
		tsvHeader, tsvRows := rowsByDataset(t, tsv.String())
		storeHeader, storeRows := rowsByDataset(t, store.String())
		if tsvHeader != storeHeader {
			t.Errorf("T=%v: headers differ:\n tsv   %q\n store %q", gap, tsvHeader, storeHeader)
		}
		if len(tsvRows) != len(storeRows) {
			t.Fatalf("T=%v: %d datasets from the TSV, %d from the store", gap, len(tsvRows), len(storeRows))
		}
		for name, want := range tsvRows {
			if got := storeRows[name]; got != want {
				t.Errorf("T=%v %s:\n tsv   %q\n store %q", gap, name, want, got)
			}
		}
	}
}
