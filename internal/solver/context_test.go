package solver

import (
	"context"
	"testing"
	"time"
)

// lossyQueue is a queue with substantial loss so bounds move every
// iteration and degraded results carry nonzero brackets.
func lossyQueue(t *testing.T) Queue {
	t.Helper()
	q, err := NewQueueNormalized(onOffSource(t, 2), 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func checkDegraded(t *testing.T, res Result, err error, reason DegradeReason) {
	t.Helper()
	if err != nil {
		t.Fatalf("degraded solve must not error: %v", err)
	}
	if res.Converged {
		t.Fatal("degraded result reports Converged")
	}
	if res.Degraded != reason {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, reason)
	}
	if !(res.Lower <= res.Loss && res.Loss <= res.Upper) {
		t.Fatalf("degraded result does not bracket: lower %v, loss %v, upper %v",
			res.Lower, res.Loss, res.Upper)
	}
	if res.Lower < 0 || res.Upper > 1 {
		t.Fatalf("degraded bounds outside [0, 1]: %v %v", res.Lower, res.Upper)
	}
}

// TestSolveContextDegradedPaths is the table-driven contract test: every
// way a solve can be interrupted yields a valid bracketed Result with the
// matching Degraded reason and a nil error.
func TestSolveContextDegradedPaths(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()

	cases := []struct {
		name   string
		ctx    context.Context
		cfg    Config
		reason DegradeReason
	}{
		{"pre-canceled context", canceled, Config{}, DegradedCanceled},
		{"expired deadline", expired, Config{}, DegradedDeadline},
		{"max-duration budget", context.Background(), Config{MaxDuration: time.Nanosecond}, DegradedDeadline},
		{"iteration budget", context.Background(),
			Config{MaxIterations: 3, RelGap: 1e-9}, DegradedIterations},
	}
	q := lossyQueue(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SolveContext(tc.ctx, q, tc.cfg)
			checkDegraded(t, res, err, tc.reason)
		})
	}
}

// TestDegradedMatchesUninterruptedPrefix: a solve stopped by its iteration
// budget reports exactly the bounds an uninterrupted iterator holds after
// the same number of steps — interruption never perturbs the numerics.
func TestDegradedMatchesUninterruptedPrefix(t *testing.T) {
	q := lossyQueue(t)
	// Budgets small enough that no refinement (stall >= 5) can trigger.
	for _, budget := range []int{1, 2, 4} {
		cfg := Config{MaxIterations: budget, RelGap: 1e-12, InitialBins: 256, MaxBins: 256}
		res, err := SolveContext(context.Background(), q, cfg)
		checkDegraded(t, res, err, DegradedIterations)
		if res.Iterations != budget {
			t.Fatalf("budget %d: stopped after %d iterations", budget, res.Iterations)
		}
		ref, err := NewIterator(q, Config{InitialBins: 256, MaxBins: 256})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < budget; i++ {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		refLo, refHi := ref.LossBounds()
		if res.Lower != refLo || res.Upper != refHi {
			t.Fatalf("budget %d: degraded bounds [%v, %v] != manual bounds [%v, %v]",
				budget, res.Lower, res.Upper, refLo, refHi)
		}
	}
}

// TestSolveContextCompletesWithoutInterference: with a background context
// and no budgets, SolveContext behaves exactly like Solve.
func TestSolveContextCompletesWithoutInterference(t *testing.T) {
	q := lossyQueue(t)
	res, err := SolveContext(context.Background(), q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Degraded != "" {
		t.Fatalf("clean solve came back degraded: converged %v, reason %q", res.Converged, res.Degraded)
	}
	plain, err := Solve(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != plain.Loss || res.Lower != plain.Lower || res.Upper != plain.Upper {
		t.Fatalf("SolveContext [%v,%v] disagrees with Solve [%v,%v]",
			res.Lower, res.Upper, plain.Lower, plain.Upper)
	}
}

// TestSolveModelContextDegrades covers the general-model entry point.
func TestSolveModelContextDegrades(t *testing.T) {
	q := lossyQueue(t)
	m, err := NewModel(q.Source.Marginal, q.Source.Interarrival, q.ServiceRate, q.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveModelContext(ctx, m, Config{})
	checkDegraded(t, res, err, DegradedCanceled)
}

// TestRunContextGenerousDeadline: a deadline far beyond the solve time
// must not degrade the result.
func TestRunContextGenerousDeadline(t *testing.T) {
	q := lossyQueue(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res, err := SolveContext(ctx, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Degraded != "" {
		t.Fatalf("generous deadline degraded the solve: %q", res.Degraded)
	}
}
