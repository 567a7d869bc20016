package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"coldtall/internal/trace"
)

// testAccesses builds a deterministic mixed-locality stream big enough to
// fill the hierarchy and force evictions/writebacks in every level.
func testAccesses(t testing.TB, n int) []trace.Access {
	t.Helper()
	zipf, err := trace.NewZipf(trace.Region{Base: 0, Size: 48 << 20}, 1.2, 0.35, 11)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := trace.NewStream(trace.Region{Base: 1 << 30, Size: 24 << 20}, 1, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	chase, err := trace.NewPointerChase(trace.Region{Base: 1 << 33, Size: 12 << 20}, 0.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := trace.NewMixture([]trace.Generator{zipf, stream, chase}, []float64{2, 1, 1}, 14)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(mix, n)
}

// serialSnapshot replays through a plain Hierarchy — the reference
// semantics sharded replay must reproduce bit for bit.
func serialSnapshot(t testing.TB, cfg HierarchyConfig, accesses []trace.Access) HierarchyStats {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accesses {
		h.Access(a)
	}
	return h.Snapshot()
}

func TestShardedMatchesSerial(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 120000)
	want := serialSnapshot(t, cfg, accesses)
	if want.LLC().Accesses() == 0 || want.Levels[0].Misses() == 0 {
		t.Fatal("test stream does not exercise the hierarchy")
	}
	for _, shards := range []int{1, 2, 8, 16, 64} {
		s, err := NewSharded(cfg, shards, 4)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := s.Replay(context.Background(), accesses); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: merged stats diverge from serial:\ngot  %+v\nwant %+v", shards, got, want)
		}
	}
}

func TestShardedChunkedReplayInvariant(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 50000)

	whole, err := NewSharded(cfg, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Replay(context.Background(), accesses); err != nil {
		t.Fatal(err)
	}

	chunked, err := NewSharded(cfg, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(accesses); off += 7777 {
		end := off + 7777
		if end > len(accesses) {
			end = len(accesses)
		}
		if err := chunked.Replay(context.Background(), accesses[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(whole.Snapshot(), chunked.Snapshot()) {
		t.Fatal("chunked replay diverges from whole-batch replay")
	}
}

func TestReplayReaderMatchesSerial(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 30000)
	want := serialSnapshot(t, cfg, accesses)

	s, err := NewSharded(cfg, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	calls := 0
	stream := bytes.NewReader(trace.EncodeBinary(accesses))
	n, err := s.ReplayReader(context.Background(), trace.NewBinaryReader(stream), 4096, func(done uint64) {
		if done <= last {
			t.Fatalf("progress not monotone: %d after %d", done, last)
		}
		last = done
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(accesses)) || last != n {
		t.Fatalf("replayed %d accesses (final progress %d), want %d", n, last, len(accesses))
	}
	if calls < 2 {
		t.Fatalf("expected chunked progress callbacks, got %d", calls)
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReplayReader stats diverge from serial:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestShardedValidation(t *testing.T) {
	cfg := TableIConfig()
	if max := MaxShards(cfg); max != 64 {
		t.Fatalf("MaxShards(TableI) = %d, want 64 (L1D sets)", max)
	}
	cases := []struct {
		name   string
		mutate func(*HierarchyConfig)
		shards int
	}{
		{"non power of two", func(*HierarchyConfig) {}, 3},
		{"exceeds smallest level", func(*HierarchyConfig) {}, 128},
		{"prefetch", func(c *HierarchyConfig) { c.NextLinePrefetch = true }, 8},
		{"mixed block size", func(c *HierarchyConfig) {
			c.Levels[1].BlockBytes = 128
		}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := TableIConfig()
			tc.mutate(&c)
			if _, err := NewSharded(c, tc.shards, 1); err == nil {
				t.Fatal("want a validation error")
			}
		})
	}
}

// TestAutoShards pins the one-core degradation policy: a single-worker
// pool gets the serial engine (no partition/merge tax — the EXPERIMENTS.md
// one-vCPU regression), wider pools a power of two sized to the pool and
// capped by the hierarchy's bank structure.
func TestAutoShards(t *testing.T) {
	cfg := TableIConfig()
	cases := []struct{ workers, want int }{
		{1, 1},
		{2, 2},
		{3, 4},
		{5, 8},
		{64, 64},
		{1000, 64}, // capped at MaxShards (the 64-set L1D)
	}
	for _, tc := range cases {
		if got := AutoShards(cfg, tc.workers); got != tc.want {
			t.Errorf("AutoShards(workers=%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
}

// TestShardedAutoSelect: shards <= 0 auto-selects and stays bit-identical
// to the serial reference.
func TestShardedAutoSelect(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 60000)
	want := serialSnapshot(t, cfg, accesses)
	for _, workers := range []int{1, 4} {
		s, err := NewSharded(cfg, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if wantShards := AutoShards(cfg, workers); len(s.shards) != wantShards {
			t.Fatalf("workers=%d: auto-selected %d shards, want %d", workers, len(s.shards), wantShards)
		}
		if err := s.Replay(context.Background(), accesses); err != nil {
			t.Fatal(err)
		}
		if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: auto-sharded snapshot diverged from serial", workers)
		}
	}
}

func TestShardedCancellation(t *testing.T) {
	s, err := NewSharded(TableIConfig(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Replay(ctx, testAccesses(t, 20000)); err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestSnapshotSub(t *testing.T) {
	cfg := TableIConfig()
	accesses := testAccesses(t, 40000)
	warm := len(accesses) / 4

	s, err := NewSharded(cfg, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(context.Background(), accesses[:warm]); err != nil {
		t.Fatal(err)
	}
	at := s.Snapshot()
	if err := s.Replay(context.Background(), accesses[warm:]); err != nil {
		t.Fatal(err)
	}
	window := s.Snapshot().Sub(at)
	if got, want := window.Accesses, uint64(len(accesses)-warm); got != want {
		t.Fatalf("window covers %d accesses, want %d", got, want)
	}
	if window.LLC().Accesses() == 0 {
		t.Fatal("measurement window saw no LLC traffic")
	}
}
