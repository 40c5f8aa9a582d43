//go:build !race

package tracestore

import (
	"os"
	"testing"
)

// TestScanPathAllocs pins the zero-allocation contract of the
// steady-state scan path: once a scanIterator's decodeBuf has seen the
// shard's segment sizes and string vocabulary, decoding further
// segments must not allocate at all — the payload, record array and
// dictionaries recycle, and dictionary strings come from the intern
// table. The column decoders (decodeFixedCols, assignServers and
// assignStringCol) run on every segment this test decodes.
func TestScanPathAllocs(t *testing.T) {
	dir, _ := benchStore(t, 20_000, 1<<10)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	sh := r.shards["bench"]
	if len(sh.segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(sh.segs))
	}
	f, err := os.Open(sh.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm-up: one pass over every segment grows the recycled arrays to
	// the shard maximum and fills the intern table.
	var buf decodeBuf
	for i := range sh.segs {
		_, fp, err := r.loadSegment(f, sh, i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		r.release(fp)
	}

	seg := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, fp, err := r.loadSegment(f, sh, seg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		r.release(fp)
		seg = (seg + 1) % len(sh.segs)
	})
	if allocs != 0 {
		t.Errorf("steady-state segment decode allocates %.1f times per segment, want 0", allocs)
	}
}
