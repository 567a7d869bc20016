package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestIndexMatchesMap drives the index and a plain map with the same
// random puts and removes, enough to grow every bucket several times, and
// checks lookups, the count and the sorted walk order agree after every
// step and across a relocation.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := new(index)
	ref := map[keyHash]span{}
	keys := make([]keyHash, 6<<bucketBits)
	for i := range keys {
		keys[i] = hashKey(fmt.Sprint("key-", i))
	}
	for step := 0; step < 12<<bucketBits; step++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(4) == 0 {
			old, had := x.remove(k)
			if want, ok := ref[k]; ok != had || (had && old != want) {
				t.Fatalf("step %d: remove = %v, %v; want %v, %v", step, old, had, want, ok)
			}
			delete(ref, k)
		} else {
			sp := span{int64(step) * 100, int64(rng.Intn(1 << 20))}
			old, had := x.put(k, sp)
			if want, ok := ref[k]; ok != had || (had && old != want) {
				t.Fatalf("step %d: put replaced %v, %v; want %v, %v", step, old, had, want, ok)
			}
			ref[k] = sp
		}
		probe := keys[rng.Intn(len(keys))]
		got, ok := x.get(probe)
		if want, wok := ref[probe]; ok != wok || got != want {
			t.Fatalf("step %d: get = %v, %v; want %v, %v", step, got, ok, want, wok)
		}
		if x.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, x.len(), len(ref))
		}
	}
	sorted := x.sorted()
	if len(sorted) != len(ref) {
		t.Fatalf("sorted holds %d entries, want %d", len(sorted), len(ref))
	}
	if !slices.IsSortedFunc(sorted, func(a, b slot) int { return bytes.Compare(a.k[:], b.k[:]) }) {
		t.Error("sorted is not in key-hash order")
	}
	for _, s := range sorted {
		if ref[s.k] != s.span() {
			t.Fatalf("sorted entry %v = %v, want %v", s.k, s.span(), ref[s.k])
		}
	}
	byOffset(sorted)
	x.relocate(sorted)
	if x.len() != len(ref) {
		t.Fatalf("after relocate len = %d, want %d", x.len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := x.get(k); !ok || got != want {
			t.Fatalf("after relocate get = %v, %v; want %v", got, ok, want)
		}
	}
}
