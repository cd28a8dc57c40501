package view_test

// Native fuzz targets for the two byte decoders that read untrusted
// input: snapshots (from disk) and partials (from the network). Each
// must return an error or a value that survives a write/read round
// trip unchanged, and never panic or allocate by a forged count. CI
// runs each for a fixed time; `go test` replays the seed corpus.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// fuzzTree builds the Figure 1 tree over the Z ring, grouped by A so
// partials carry a non-empty result schema.
func fuzzTree(t testing.TB) *view.Tree[int64] {
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: figure1Rels(), Free: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fuzzSeeds returns the encoding written by a loaded tree, plus its
// truncations at every seventh byte, as round-trip seeds.
func fuzzSeeds(f *testing.F, write func(*view.Tree[int64], *bytes.Buffer) error) {
	tr := fuzzTree(f)
	if err := tr.Init(figure1Data()); err != nil {
		f.Fatal(err)
	}
	if err := tr.Insert("R", value.T("a3", 5)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		f.Add(buf.Bytes()[:cut])
	}
	f.Add(buf.Bytes())
}

func FuzzReadSnapshot(f *testing.F) {
	codec := ring.IntCodec{}
	fuzzSeeds(f, func(tr *view.Tree[int64], buf *bytes.Buffer) error { return tr.WriteSnapshot(buf, codec) })
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTree(t)
		if err := tr.ReadSnapshot(bytes.NewReader(data), codec); err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteSnapshot(&out, codec); err != nil {
			t.Fatal(err)
		}
		again := fuzzTree(t)
		if err := again.ReadSnapshot(&out, codec); err != nil {
			t.Fatalf("re-reading an accepted snapshot: %v", err)
		}
		assertSameMap(t, again.Result(), tr.Result())
	})
}

func FuzzReadPartial(f *testing.F) {
	codec := ring.IntCodec{}
	fuzzSeeds(f, func(tr *view.Tree[int64], buf *bytes.Buffer) error { return tr.WritePartial(buf, codec) })
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTree(t)
		m, err := tr.ReadPartial(bytes.NewReader(data), codec)
		if err != nil {
			return
		}
		tr.SwapResult(m)
		var out bytes.Buffer
		if err := tr.WritePartial(&out, codec); err != nil {
			t.Fatal(err)
		}
		again, err := tr.ReadPartial(&out, codec)
		if err != nil {
			t.Fatalf("re-reading an accepted partial: %v", err)
		}
		assertSameMap(t, again, m)
	})
}

// TestReadSnapshotForgedLengthAllocatesLittle declares a 1 GiB codec
// tag and then ends: the decoder must fail having allocated in
// proportion to the bytes it actually read.
func TestReadSnapshotForgedLengthAllocatesLittle(t *testing.T) {
	data := binary.AppendUvarint([]byte("FIVMSNAP\x02"), 1<<30)
	data = append(data, "ring.IntCodec"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fuzzTree(t).ReadSnapshot(bytes.NewReader(data), ring.IntCodec{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes", len(data), grew)
	}
}

func assertSameMap(t *testing.T, got, want *relation.Map[int64]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("round trip has %d tuples, want %d", got.Len(), want.Len())
	}
	want.Each(func(tp value.Tuple, p int64) {
		if q, ok := got.Get(tp); !ok || q != p {
			t.Fatalf("round trip has %v -> %d (present %v), want %d", tp, q, ok, p)
		}
	})
}
