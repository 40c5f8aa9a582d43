package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/capture"
	"github.com/ytcdn-sim/ytcdn/internal/content"
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
// re-sorts equal starts by end splits it at gaps below 5 s. The study's
// TSV is also analyzed with its lines shuffled: its start-ordered scan
// then buffers the whole trace, and must print what the file in
// emission order prints.
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

	shuffledTSV := filepath.Join(dir, "shuffled.tsv")
	data, err := os.ReadFile(studyTSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	rand.New(rand.NewSource(1)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	if err := os.WriteFile(shuffledTSV, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

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
				Bytes: 1 << 20, VideoID: capture.VideoID([]byte("abcdefghijk")), Resolution: content.Res360p,
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
		{"shuffled study", shuffledTSV, studyStore, ""},
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
			Bytes: 1 << 20, VideoID: capture.VideoID([]byte("abcdefghijk")), Resolution: content.Res360p,
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

// craftStore writes a one-record store by hand, the bytes a
// tracestore.Writer lays down, but with the VideoID and resolution
// dictionary entries given verbatim, so the store can hold records the
// writer never writes: a shard header (magic, dataset name), one
// segment header (magic "YSEG", count, payload length, CRC-32, min and
// max start) and the columnar payload. It returns the shard's path.
func craftStore(t *testing.T, dir, dataset string, client, server ipnet.Addr, start, end time.Duration, size int64, video, res string) string {
	t.Helper()
	var p []byte
	p = binary.AppendVarint(p, int64(start))
	p = binary.AppendVarint(p, int64(end-start))
	p = binary.AppendVarint(p, size)
	p = binary.AppendUvarint(p, uint64(client))
	p = binary.AppendUvarint(p, 1) // server dictionary: one entry, then its id
	p = binary.AppendUvarint(p, uint64(server))
	p = binary.AppendUvarint(p, 0)
	for _, entry := range []string{video, res} {
		p = binary.AppendUvarint(p, 1)
		p = binary.AppendUvarint(p, uint64(len(entry)))
		p = append(p, entry...)
		p = binary.AppendUvarint(p, 0)
	}
	shard := append([]byte("YTTS1\n"), byte(len(dataset)))
	shard = append(shard, dataset...)
	shard = binary.LittleEndian.AppendUint32(shard, 0x59534547)
	shard = binary.LittleEndian.AppendUint32(shard, 1)
	shard = binary.LittleEndian.AppendUint32(shard, uint32(len(p)))
	shard = binary.LittleEndian.AppendUint32(shard, crc32.ChecksumIEEE(p))
	shard = binary.LittleEndian.AppendUint64(shard, uint64(start))
	shard = binary.LittleEndian.AppendUint64(shard, uint64(start))
	shard = append(shard, p...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dataset+".shard")
	if err := os.WriteFile(path, shard, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRejectsInvalidRecords gives both inputs the same record, once as
// a TSV line and once as a hand-built store: a 10-byte VideoID and a
// 1080p resolution must fail analyzeTSV and analyzeStore alike. The
// valid record in the same shape passes both, and its crafted shard
// equals the one a tracestore.Writer writes, so the rejections come
// from the two fields and not from the crafting.
func TestRejectsInvalidRecords(t *testing.T) {
	const dataset = "EU1-ADSL"
	client, server := ipnet.MustParseAddr("10.0.0.1"), ipnet.MustParseAddr("173.194.0.1")
	start, end, size := 10*time.Second, 11*time.Second, int64(1<<20)
	for _, c := range []struct {
		name, video, res string
		valid            bool
	}{
		{"valid", "abcdefghijk", "360p", true},
		{"10-byte VideoID", "abcdefghij", "360p", false},
		{"1080p", "abcdefghijk", "1080p", false},
	} {
		dir := t.TempDir()
		tsv := filepath.Join(dir, "trace.tsv")
		line := fmt.Sprintf("%s\t%s\t%s\t%d\t%d\t%d\t%s\t%s\n", dataset, client, server,
			start.Microseconds(), end.Microseconds(), size, c.video, c.res)
		if err := os.WriteFile(tsv, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		store := filepath.Join(dir, "store")
		crafted := craftStore(t, store, dataset, client, server, start, end, size, c.video, c.res)

		errTSV := analyzeTSV(io.Discard, tsv, time.Second)
		errStore := analyzeStore(io.Discard, store, time.Second)
		if c.valid {
			if errTSV != nil || errStore != nil {
				t.Fatalf("%s: TSV error %v, store error %v; want both accepted", c.name, errTSV, errStore)
			}
			written := filepath.Join(dir, "written")
			w, err := tracestore.NewWriter(written, tracestore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			w.Record(dataset, capture.FlowRecord{Client: client, Server: server, Start: start, End: end, Bytes: size,
				VideoID: capture.VideoID([]byte(c.video)), Resolution: content.Res360p})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(written, filepath.Base(crafted)))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(crafted); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("crafted shard %x differs from the written one %x (%v)", got, want, err)
			}
			continue
		}
		if errTSV == nil {
			t.Errorf("%s: analyzeTSV accepted %q", c.name, line)
		}
		if errStore == nil {
			t.Errorf("%s: analyzeStore accepted the crafted store", c.name)
		}
	}
}
