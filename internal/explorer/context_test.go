package explorer

import (
	"context"
	"errors"
	"testing"

	"coldtall/internal/workload"
)

func TestEvaluateAllContextPreCancelled(t *testing.T) {
	e := New()
	e.Workers = 4
	points := []DesignPoint{Baseline(), SRAMAt(77)}
	traffics := workload.StaticTraffic()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvaluateAllContext(ctx, points, traffics); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateAllContext err = %v, want context.Canceled", err)
	}
	if got := e.OptimizeCalls(); got != 0 {
		t.Errorf("%d optimizations ran under a pre-cancelled context", got)
	}
}

func TestCharacterizeContextCancelledIsNotCached(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CharacterizeContext(ctx, Baseline()); !errors.Is(err, context.Canceled) {
		t.Fatalf("CharacterizeContext err = %v, want context.Canceled", err)
	}
	// A later caller with a live context must get a clean result: the
	// cancellation above must not have poisoned the cache.
	r, err := e.CharacterizeContext(context.Background(), Baseline())
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if r.ReadLatency <= 0 {
		t.Error("retry returned a zero characterization")
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Errorf("optimize calls = %d, want exactly 1 (cancelled attempt ran nothing)", got)
	}
}

// firstOptimizeCtx is a context whose Err reports context.Canceled once
// the explorer has started its first array optimization: cancellation lands
// at that fixed point of the sweep, where a watcher goroutine would race a
// sweep fast enough to finish first.
type firstOptimizeCtx struct {
	context.Context
	e *Explorer
}

func (c firstOptimizeCtx) Err() error {
	if c.e.OptimizeCalls() > 0 {
		return context.Canceled
	}
	return nil
}

// TestEvaluateAllContextCancelMidSweep cancels while the grid is in flight
// and checks the sweep aborts early instead of evaluating every cell.
func TestEvaluateAllContextCancelMidSweep(t *testing.T) {
	e := New()
	e.Workers = 2
	points, err := TableIICandidates()
	if err != nil {
		t.Fatal(err)
	}
	traffics := workload.StaticTraffic()
	// Cancel as soon as the first characterization starts: the remaining
	// (many) points must never be optimized. Each worker can have passed
	// its last live poll before the other's optimization began, so at most
	// e.Workers optimizations start.
	ctx := firstOptimizeCtx{Context: context.Background(), e: e}
	_, sweepErr := e.EvaluateAllContext(ctx, points, traffics)
	if !errors.Is(sweepErr, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", sweepErr)
	}
	if got := e.OptimizeCalls(); got < 1 || got > int64(e.Workers) || got >= int64(len(points)) {
		t.Errorf("optimize calls = %d, want 1..%d of %d points", got, e.Workers, len(points))
	}
}
