package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// batchRecorder is a store that records which batch entry point the
// probe forwarded to.
type batchRecorder struct {
	*store.MemStore
	batches, lazy int
}

func (b *batchRecorder) ApplyBatch(ops []store.BatchOp) error {
	b.batches++
	return store.ApplyBatch(b.MemStore, ops)
}

func (b *batchRecorder) ApplyBatchLazy(ops []store.BatchOp) error {
	b.lazy++
	return store.ApplyBatch(b.MemStore, ops)
}

func TestStoreProbeForwardsBatchers(t *testing.T) {
	inner := &batchRecorder{MemStore: store.NewMemStore()}
	var tl storeTally
	p := newStoreProbe(inner, &tl)
	ops := []store.BatchOp{{ID: "a", Data: []byte("1")}, {ID: "b", Data: []byte("22")}}
	if err := store.ApplyBatch(p, ops); err != nil {
		t.Fatal(err)
	}
	if err := store.ApplyBatchBestEffort(p, []store.BatchOp{{ID: "a", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if inner.batches != 1 || inner.lazy != 1 {
		t.Fatalf("inner saw %d ApplyBatch and %d ApplyBatchLazy calls, want 1 and 1", inner.batches, inner.lazy)
	}
	if got := tl.apply.snap(); got.calls != 2 || got.items != 3 || got.bytes != 1+1+1+2+1 {
		t.Fatalf("apply tally %+v, want 2 calls, 3 records, 6 bytes", got)
	}

	// Over a store without batch support the probe must fall back exactly
	// as store.ApplyBatch does without it.
	plain, direct := store.NewMemStore(), store.NewMemStore()
	if err := store.ApplyBatch(newStoreProbe(plain, &tl), ops); err != nil {
		t.Fatal(err)
	}
	if err := store.ApplyBatch(direct, ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		got, err1 := plain.Read(op.ID)
		want, err2 := direct.Read(op.ID)
		if err1 != nil || err2 != nil || string(got) != string(want) {
			t.Fatalf("%s: probe %q (%v), direct %q (%v)", op.ID, got, err1, want, err2)
		}
	}
}

// smokeRound runs one tiny round of the named workload.
func smokeRound(t *testing.T, name string, seed int64, traced bool) round {
	t.Helper()
	wl, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rc := &runCtx{rng: rand.New(rand.NewSource(seed)), traced: traced, smoke: true, dir: t.TempDir()}
	r, err := wl.round(rc)
	if err != nil {
		t.Fatalf("%s round (traced=%v): %v", name, traced, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: attempted %d failed %d", name, r.attempted, r.failed)
	}
	return r
}

// TestSmoke runs every workload's correctness checks at a tiny size,
// traced and untraced with one seed, and checks that the probes change
// nothing they count: the traced run's counts equal the untraced run's
// server-side counts, and the layer times add up to the latency.
func TestSmoke(t *testing.T) {
	for _, wl := range scenarios {
		t.Run(wl.name, func(t *testing.T) {
			plain := smokeRound(t, wl.name, 7, false)
			traced := smokeRound(t, wl.name, 7, true)
			for _, name := range reportedLayers {
				if _, ok := traced.layers[name]; !ok {
					t.Errorf("traced run did not measure %s", name)
				}
			}
			for name, want := range plain.counts {
				if got := traced.layers[name]; !closeCount(name, got, want) {
					t.Errorf("%s: traced probes count %v, untraced run %v", name, got, want)
				}
				if got := traced.counts[name]; !closeCount(name, got, want) {
					t.Errorf("%s: traced server-side count %v, untraced run %v", name, got, want)
				}
			}
			if u := traced.layers["engine.unattributed_ms_per_inst"]; u <= 0 {
				t.Errorf("layer times exceed the mean latency: unattributed remainder %v ms", u)
			}
			for _, name := range reportedLayers {
				if layerUnit(name) == "ms" && traced.layers[name] <= 0 {
					t.Errorf("%s = %v: every reported time must be exercised by every workload", name, traced.layers[name])
				}
			}
		})
	}
}

// closeCount compares two per-instance counts. Orb calls repeat
// exactly. Fsyncs repeat up to group commit, which may fold the commits
// of the two clients into one fsync when they meet; that only lowers
// the count, by at most one fsync in a hundred here.
func closeCount(name string, a, b float64) bool {
	if name == "store.fsyncs_per_inst" {
		return math.Abs(a-b) <= 0.01*math.Max(a, b)
	}
	return a == b
}
