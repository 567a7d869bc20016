package main

import (
	"bytes"
	"runtime"
	"testing"
)

// The workload inputs are a pure function of the seed: the same seed gives
// the same request sequence and trace bytes, another seed gives others,
// and the paper workload ignores the seed.

func TestInputsDeterministic(t *testing.T) {
	for _, w := range []string{"paper", "serve", "ingest"} {
		a, err := inputsDigest(w, DefaultSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputsDigest(w, DefaultSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed %d gave two different inputs", w, DefaultSeed)
		}
	}
}

func TestInputsDependOnSeed(t *testing.T) {
	for _, w := range []string{"serve", "ingest"} {
		a, err := inputsDigest(w, DefaultSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputsDigest(w, HeldOutSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: seeds %d and %d gave the same inputs", w, DefaultSeed, HeldOutSeed)
		}
	}
}

func TestPaperIgnoresSeed(t *testing.T) {
	a, err := inputsDigest("paper", DefaultSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inputsDigest("paper", HeldOutSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("paper inputs changed with the seed")
	}
}

// Every trace of a round differs from the others, the same round of the
// same seed is byte-identical, and a later round is new bytes (each round
// must take the full ingest path, not exact-duplicate dedup).
func TestIngestTraces(t *testing.T) {
	seen := map[string]bool{}
	for round := 0; round < 2; round++ {
		for _, k := range ingestKinds {
			a, err := ingestTrace(DefaultSeed, round, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ingestTrace(DefaultSeed, round, k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("round %d %s: not deterministic", round, k)
			}
			if seen[string(a)] {
				t.Errorf("round %d %s: repeats an earlier trace", round, k)
			}
			seen[string(a)] = true
		}
	}
}

// Misses never repeat within a run: the clients of the miss-only and the
// mixed phase draw disjoint grid points, and never a hot key.
func TestMissesAreNew(t *testing.T) {
	hot, err := hotSet()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := newMissGrid(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range hot {
		keys[r.key] = true
	}
	const clients = 2
	for phase, frac := range []float64{1, missFraction} {
		for c, seq := range phaseSeqs(DefaultSeed, clients, phase, hot, grid, frac) {
			for i := 0; i < 2000; i++ {
				r, err := seq.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !r.miss {
					continue
				}
				if keys[r.key] {
					t.Fatalf("phase %d client %d request %d repeats key %s", phase, c, i, r.key)
				}
				keys[r.key] = true
			}
		}
	}
}

// The miss grid outlasts any run the contract allows: at a pessimistic
// 500 misses per client-second in both phases that draw misses (over
// twice what the reference machine sends in the miss-only phase, and far
// more than in the mixed one), every one of max(8, nproc) clients still
// has never-seen points left after 60 seconds.
func TestMissGridCoversLongRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("parses every grid point")
	}
	grid, err := newMissGrid(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	slots := 2 * max(8, runtime.NumCPU())
	const seconds, missesPerSecond = 60, 500
	valid := make([]int, slots)
	for i := range grid.order {
		if _, ok := grid.point(i); ok {
			valid[i%slots]++
		}
	}
	for s, n := range valid {
		if n < seconds*missesPerSecond {
			t.Errorf("slot %d of %d has %d grid points, fewer than %d", s, slots, n, seconds*missesPerSecond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unattributed.walk", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "array.optimize", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "array.optimize", Start: 30, End: 50},
		{ID: 4, Parent: 2, Name: "tech.wire", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	// walk: 100 - union[10,50]=40 → 60; array: (30-5)+20 = 45; tech: 5.
	if got["unattributed"] != 60 || got["array"] != 45 || got["tech"] != 5 {
		t.Errorf("selfTimes = %v", got)
	}
}

func TestLayerOfFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"coldtall/internal/array.(*boundContext).lowerBound":                                                  "array",
		"coldtall.(*Study).ArtifactTable":                                                                     "artifact",
		"coldtall/internal/job.(*Manager).persist":                                                            "other/job",
		"coldtall/internal/cache.(*Cache[...]).Get":                                                           "cache",
		"coldtall/internal/parallel.MapContext[go.shape.struct { P coldtall/internal/explorer.DesignPoint }]": "other/parallel",
		"runtime.mallocgc": "",
		"math.Exp":         "",
	} {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{1000: 99, 999: 90, 100: 90, 40: 75, 39: 0} {
		got, ok := tailPercentile(n)
		if got != want || ok != (want != 0) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", n, got, ok, want)
		}
	}
}

func TestFoldOther(t *testing.T) {
	m := map[string]float64{"sim": 5, "other/job": 3, "other/parallel": 2}
	pkgs := foldOther(m)
	if m["other"] != 5 || len(m) != 2 || len(pkgs) != 2 || pkgs["other/job"] != 3 {
		t.Errorf("foldOther left %v, returned %v", m, pkgs)
	}
}
