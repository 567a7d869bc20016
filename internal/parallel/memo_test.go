package parallel

import (
	"sync"
	"testing"
)

func TestMemoBounded(t *testing.T) {
	const size = 64
	m := NewMemo[int, int](size)
	for i := 0; i < 100_000; i++ {
		m.Put(i, i)
		if n := m.Len(); n > 2*size {
			t.Fatalf("after %d puts the memo holds %d entries, bound %d", i+1, n, 2*size)
		}
	}
	// The newest entries are still there; the oldest are gone.
	if v, ok := m.Get(99_999); !ok || v != 99_999 {
		t.Errorf("newest entry: %d, %t", v, ok)
	}
	if _, ok := m.Get(0); ok {
		t.Error("oldest entry survived 100k distinct puts")
	}
}

func TestMemoPromotesOldGenerationHits(t *testing.T) {
	m := NewMemo[string, int](2)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("c", 3) // young was full: {a, b} becomes the old generation
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("a from the old generation: %d, %t", v, ok)
	}
	m.Put("d", 4) // young {c, a} full: it becomes old, b is dropped
	if _, ok := m.Get("b"); ok {
		t.Error("b was never re-read and should have aged out")
	}
	for k, want := range map[string]int{"a": 1, "c": 3, "d": 4} {
		if v, ok := m.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %t; want %d", k, v, ok, want)
		}
	}
	if n := m.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

func TestMemoOverwriteDoesNotDuplicate(t *testing.T) {
	m := NewMemo[int, int](4)
	for i := 0; i < 4; i++ {
		m.Put(i, i)
	}
	m.Put(4, 4) // rotate: 0..3 old
	m.Put(1, 10)
	if n := m.Len(); n != 5 {
		t.Errorf("Len = %d, want 5 (a re-put key moves, it is not copied)", n)
	}
	if v, _ := m.Get(1); v != 10 {
		t.Errorf("Get(1) = %d, want the newer value 10", v)
	}
}

func TestMemoConcurrentUse(t *testing.T) {
	m := NewMemo[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7 + i) % 50
				if v, ok := m.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
					return
				}
				m.Put(k, k*k)
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > 32 {
		t.Errorf("Len = %d, bound 32", n)
	}
}
