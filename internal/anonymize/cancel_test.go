package anonymize

import (
	"context"
	"testing"
	"time"

	"repro/internal/apsp"
)

// cancelAfterStep returns a context that is cancelled by the returned
// trace hook as soon as the run commits its first step, plus a channel
// closed at that moment — so the test cancels a run that is provably
// mid-computation, not one that never started.
func cancelAfterStep(t *testing.T) (context.Context, func(Step), <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	started := make(chan struct{})
	fired := false
	return ctx, func(Step) {
		if !fired {
			fired = true
			cancel()
			close(started)
		}
	}, started
}

// TestRunContextCancelStopsComputation is the regression test for the
// detached-worker bug: cancelling the context must stop the greedy
// loop itself within one iteration, not merely detach whoever was
// waiting, and the result must carry the distinct Cancelled outcome.
func TestRunContextCancelStopsComputation(t *testing.T) {
	// Dense enough that a full run takes many seconds: without the
	// cancellation check the goroutine would keep computing and this
	// test would time out waiting on done.
	g := randomGraph(150, 0.08, 1)
	for _, h := range []Heuristic{Removal, RemovalInsertion} {
		ctx, trace, started := cancelAfterStep(t)
		done := make(chan Result, 1)
		go func() {
			res, err := RunContext(ctx, g, Options{
				L: 3, Theta: 0.01, Heuristic: h, Seed: 1, Trace: trace,
			})
			if err != nil {
				t.Errorf("%v: RunContext error: %v", h, err)
			}
			done <- res
		}()
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: run never committed a step", h)
		}
		select {
		case res := <-done:
			if !res.Cancelled {
				t.Errorf("%v: cancelled run did not report Cancelled", h)
			}
			if res.TimedOut {
				t.Errorf("%v: cancellation misreported as TimedOut", h)
			}
			if res.Graph == nil || res.Steps < 1 {
				t.Errorf("%v: cancelled run lost its best-effort state (steps=%d)", h, res.Steps)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: computation kept running after cancellation", h)
		}
	}
}

// TestAnnealContextCancel: the annealer polls the same interrupt, so
// cancellation stops it between proposals with the same outcome.
func TestAnnealContextCancel(t *testing.T) {
	g := randomGraph(80, 0.1, 2)
	ctx, trace, started := cancelAfterStep(t)
	done := make(chan Result, 1)
	go func() {
		res, err := AnnealContext(ctx, g, AnnealOptions{L: 3, Theta: 0.01, Seed: 1, Trace: trace})
		if err != nil {
			t.Errorf("AnnealContext error: %v", err)
		}
		done <- res
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("annealer never accepted a move")
	}
	select {
	case res := <-done:
		if !res.Cancelled {
			t.Error("cancelled anneal did not report Cancelled")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("annealer kept running after cancellation")
	}
}

// TestPrebuiltDistancesSeed: a run seeded from a prebuilt store makes
// exactly the choices a run that builds its own does, and never
// mutates the store it was given.
func TestPrebuiltDistancesSeed(t *testing.T) {
	g := randomGraph(40, 0.1, 3)
	for _, kind := range []apsp.Kind{apsp.KindCompact, apsp.KindPacked} {
		prebuilt := storeIn(g, 2, kind)
		pristine := prebuilt.Clone()
		opts := Options{L: 2, Theta: 0.3, Heuristic: RemovalInsertion, Seed: 7}

		fresh, err := Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Distances = prebuilt
		seeded, err := Run(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh.Graph.Equal(seeded.Graph) || fresh.FinalLO != seeded.FinalLO || fresh.Steps != seeded.Steps {
			t.Fatalf("%v: seeded run diverged from fresh build", kind)
		}
		if !apsp.Equal(prebuilt, pristine) {
			t.Fatalf("%v: run mutated the prebuilt store it was handed", kind)
		}
	}
}

// TestPrebuiltDistancesValidated: a store with the wrong dimensions is
// an error, not a corrupt run.
func TestPrebuiltDistancesValidated(t *testing.T) {
	g := randomGraph(20, 0.2, 4)
	wrongL := apsp.Build(g, 3, apsp.BuildOptions{})
	if _, err := Run(g, Options{L: 2, Theta: 0.5, Distances: wrongL}); err == nil {
		t.Error("store capped at the wrong L accepted")
	}
	small := randomGraph(10, 0.2, 4)
	wrongN := apsp.Build(small, 2, apsp.BuildOptions{})
	if _, err := Run(g, Options{L: 2, Theta: 0.5, Distances: wrongN}); err == nil {
		t.Error("store over the wrong vertex count accepted")
	}
}
