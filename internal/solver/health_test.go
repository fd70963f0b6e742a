package solver

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"lrd/internal/faultinject"
)

// stepUntilError drives the iterator until the watchdog trips or the
// iteration limit is reached, returning the first error.
func stepUntilError(t *testing.T, it *Iterator, limit int) error {
	t.Helper()
	for i := 0; i < limit; i++ {
		if err := it.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TestWatchdogCatchesInjectedNaN: a NaN written into the convolution
// output must surface as a typed not-finite error, never as garbage
// bounds.
func TestWatchdogCatchesInjectedNaN(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		if len(xs) > 0 {
			xs[len(xs)/2] = math.NaN()
		}
	})
	stepErr := stepUntilError(t, it, 10)
	if stepErr == nil {
		t.Fatal("injected NaN went undetected")
	}
	if !errors.Is(stepErr, ErrNumeric) {
		t.Fatalf("error does not match ErrNumeric: %v", stepErr)
	}
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthNotFinite {
		t.Fatalf("kind = %v, want %v (err %v)", ne.Kind, HealthNotFinite, stepErr)
	}
	if faultinject.Fired(faultinject.SolverConvolution) == 0 {
		t.Fatal("injection hook never fired")
	}
}

// TestWatchdogCatchesMassDrift: halving the convolved mass must trip the
// mass-drift check on the very step it happens.
func TestWatchdogCatchesMassDrift(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		for i := range xs {
			xs[i] *= 0.5
		}
	})
	stepErr := it.Step()
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthMassDrift {
		t.Fatalf("want mass-drift error, got %v", stepErr)
	}
}

// TestWatchdogCatchesBoundOrderViolation: swapping the loss bounds so the
// lower exceeds the upper must trip the bracket-ordering check.
func TestWatchdogCatchesBoundOrderViolation(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SolverLossBounds, func(pair []float64) {
		pair[0], pair[1] = 0.9, 0.1
	})
	stepErr := it.Step()
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthBoundOrder {
		t.Fatalf("want bound-order error, got %v", stepErr)
	}
}

// TestWatchdogCatchesMonotonicityViolation: after the lower bound has
// risen, forcing it back to zero (a legal-looking but impossible move)
// must trip the monotone-tightening check.
func TestWatchdogCatchesMonotonicityViolation(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	for lo, _ := it.LossBounds(); lo <= 1e-6; lo, _ = it.LossBounds() {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
		if it.Iterations() > 10000 {
			t.Fatal("lower bound never rose; pick a lossier queue")
		}
	}
	faultinject.Arm(faultinject.SolverLossBounds, func(pair []float64) {
		pair[0] = 0 // lower bound collapses: monotone tightening violated
	})
	stepErr := it.Step()
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthMonotonicity {
		t.Fatalf("want monotonicity error, got %v", stepErr)
	}
}

// TestWatchdogCatchesUpperMonotonicityViolation: from the paper's full
// start the upper bound can only fall, so forcing it back up to 1 must trip
// the monotone-tightening check. (A certified start's raw upper iterates
// may rise, so the check is off there.)
func TestWatchdogCatchesUpperMonotonicityViolation(t *testing.T) {
	defer faultinject.Reset()
	it, err := newPaperStartIterator(lossyQueue(t).Model(), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Arm(faultinject.SolverLossBounds, func(pair []float64) {
		pair[1] = 1 // upper bound jumps back up: monotone tightening violated
	})
	stepErr := it.Step()
	var ne *NumericError
	if !errors.As(stepErr, &ne) || ne.Kind != HealthMonotonicity {
		t.Fatalf("want monotonicity error, got %v", stepErr)
	}
}

// TestWatchdogErrorNotCommitted: a rejected step must leave the iterator
// at its last healthy state so callers can still read valid bounds.
func TestWatchdogErrorNotCommitted(t *testing.T) {
	defer faultinject.Reset()
	it, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := it.LossBounds()
	n := it.Iterations()
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		xs[0] = math.Inf(1)
	})
	if err := it.Step(); err == nil {
		t.Fatal("corrupted step accepted")
	}
	lo2, hi2 := it.LossBounds()
	if lo2 != lo || hi2 != hi || it.Iterations() != n {
		t.Fatalf("rejected step mutated state: [%v,%v] n=%d -> [%v,%v] n=%d",
			lo, hi, n, lo2, hi2, it.Iterations())
	}
}

// TestSolveContextSurfacesNumericError: the high-level entry point
// propagates watchdog errors as errors (degraded results are reserved for
// cancellation/budget exhaustion, never numeric corruption).
func TestSolveContextSurfacesNumericError(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.SolverConvolution, func(xs []float64) {
		xs[0] = math.NaN()
	})
	_, err := SolveContext(context.Background(), lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("want ErrNumeric from SolveContext, got %v", err)
	}
}

// TestConstructionRejectsCorruptIncrementPMF: corrupted increment pmfs are
// caught at iterator construction, before any stepping happens.
func TestConstructionRejectsCorruptIncrementPMF(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.SolverIncrementPMF, func(xs []float64) {
		if len(xs) > 0 {
			xs[0] = math.NaN()
		}
	})
	_, err := NewIterator(lossyQueue(t), Config{InitialBins: 128, MaxBins: 128})
	var ne *NumericError
	if !errors.As(err, &ne) || ne.Kind != HealthNotFinite {
		t.Fatalf("want not-finite construction error, got %v", err)
	}
}

// TestNumericErrorMessage pins the error text's load-bearing fields.
func TestNumericErrorMessage(t *testing.T) {
	e := &NumericError{Kind: HealthMassDrift, Iteration: 7, Bins: 256, Detail: "drift 0.5"}
	msg := e.Error()
	for _, want := range []string{"mass-drift", "iteration 7", "M=256", "drift 0.5"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !errors.Is(e, ErrNumeric) {
		t.Fatal("NumericError does not match ErrNumeric")
	}
}
