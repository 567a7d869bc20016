package array

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
)

func TestOptimizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	if _, err := OptimizeContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeContext err = %v, want context.Canceled", err)
	}
	if _, err := ParetoContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("ParetoContext err = %v, want context.Canceled", err)
	}
}

// pollCountdownCtx is a context whose Err reports context.Canceled from
// its (n+1)-th poll on. Cancellation then lands at a fixed point of the
// search however fast the search runs, where a timer would race it.
type pollCountdownCtx struct {
	context.Context
	left  atomic.Int64
	polls atomic.Int64
}

func cancelAfterPolls(n int64) *pollCountdownCtx {
	c := &pollCountdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *pollCountdownCtx) Err() error {
	c.polls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestOptimizeContextCancelledMidSearch proves a cancelled search neither
// returns a partial best nor keeps sweeping: the search polls once per
// candidate, so with cancellation landing on the fourth poll it must fail
// with the cancellation after exactly four polls, three candidates into the
// organization enumeration.
func TestOptimizeContextCancelledMidSearch(t *testing.T) {
	const before = 3
	ctx := cancelAfterPolls(before)
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	_, err := OptimizeContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := ctx.polls.Load(); got != before+1 {
		t.Errorf("search polled the context %d times, want %d (stop at the first cancelled poll)", got, before+1)
	}
}

func TestOptimizeBackgroundUnaffected(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	plain, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Org != ctxed.Org || plain.ReadLatency != ctxed.ReadLatency {
		t.Errorf("OptimizeContext(Background) diverges from Optimize: %v vs %v", ctxed.Org, plain.Org)
	}
}
