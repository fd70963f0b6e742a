package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrd"
)

// goodGrid is a 2×2 grid whose brackets decrease in buffer, with matching
// reference brackets.
func goodGrid() ([]cell, map[[2]int]refCell) {
	cells := []cell{
		{Buffer: 0.1, Cutoff: 1, Loss: 0.10, Lower: 0.09, Upper: 0.11, Converged: true},
		{Buffer: 0.1, Cutoff: 2, Loss: 0.20, Lower: 0.18, Upper: 0.22, Converged: true},
		{Buffer: 1.0, Cutoff: 1, Loss: 0.05, Lower: 0.04, Upper: 0.06, Converged: true},
		{Buffer: 1.0, Cutoff: 2, Loss: 0, Lower: 1e-13, Upper: 5e-11, Converged: true}, // below the loss floor
	}
	ref := map[[2]int]refCell{}
	for i, c := range cells {
		ref[[2]int{i / 2, i % 2}] = refCell{Lower: c.Lower, Upper: c.Upper}
	}
	return cells, ref
}

func TestCheckSweepAcceptsAValidGrid(t *testing.T) {
	cells, ref := goodGrid()
	if bad := checkSweep(cells, 2, 2); len(bad) != 0 {
		t.Fatalf("valid grid failed: %v", bad)
	}
	if bad := checkOverlap(cells, 2, ref); len(bad) != 0 {
		t.Fatalf("valid grid missed its reference: %v", bad)
	}
	// A one-cell smoke grid is checked against the first reference cell.
	if bad := checkOverlap(cells[:1], 1, ref); len(bad) != 0 {
		t.Fatalf("one-cell grid missed its reference: %v", bad)
	}
}

func TestCheckSweepRejectsBadGrids(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(cells []cell, ref map[[2]int]refCell) []cell
		want   string
	}{
		{"bracket disjoint from the reference", func(cells []cell, ref map[[2]int]refCell) []cell {
			ref[[2]int{0, 0}] = refCell{Lower: 0.2, Upper: 0.3}
			return cells
		}, "misses the reference"},
		{"no reference bracket", func(cells []cell, ref map[[2]int]refCell) []cell {
			delete(ref, [2]int{1, 1})
			return cells
		}, "has no reference"},
		{"loss increasing in buffer", func(cells []cell, _ map[[2]int]refCell) []cell {
			cells[2].Lower, cells[2].Loss, cells[2].Upper = 0.12, 0.13, 0.14
			return cells
		}, "increases with buffer"},
		{"not converged", func(cells []cell, _ map[[2]int]refCell) []cell {
			cells[1].Converged = false
			return cells
		}, "did not converge"},
		{"degraded", func(cells []cell, _ map[[2]int]refCell) []cell {
			cells[1].Degraded = "deadline"
			return cells
		}, "did not converge"},
		{"loss outside its bracket", func(cells []cell, _ map[[2]int]refCell) []cell {
			cells[0].Loss = 0.2
			return cells
		}, "outside its bracket"},
		{"inverted bracket", func(cells []cell, _ map[[2]int]refCell) []cell {
			cells[0].Lower, cells[0].Upper = 0.11, 0.09
			return cells
		}, "inverted bracket"},
		{"missing cells", func(cells []cell, _ map[[2]int]refCell) []cell {
			return cells[:3]
		}, "returned 3 cells"},
	} {
		cells, ref := goodGrid()
		cells = c.mutate(cells, ref)
		bad := append(checkSweep(cells, 2, 2), checkOverlap(cells, 2, ref)...)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: got %q, want a failure mentioning %q", c.name, bad, c.want)
		}
	}
}

func TestCheckProvision(t *testing.T) {
	good := lrd.Provisioned{Value: 0.5, Loss: 0.049, Bracket: 0.49, BracketLoss: 0.051}
	if err := checkProvision(good, 0.05); err != nil {
		t.Fatalf("valid answer failed: %v", err)
	}
	for name, p := range map[string]lrd.Provisioned{
		"loss above the SLO":         {Value: 0.5, Loss: 0.06, Bracket: 0.49, BracketLoss: 0.07},
		"bracket meets the SLO":      {Value: 0.5, Loss: 0.049, Bracket: 0.49, BracketLoss: 0.05},
		"bracket not below value":    {Value: 0.5, Loss: 0.049, Bracket: 0.5, BracketLoss: 0.051},
		"no infeasible point probed": {Value: 0.001, Loss: 0.01},
	} {
		if err := checkProvision(p, 0.05); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckServeReplies(t *testing.T) {
	first := []byte(`{"loss":0.1,"lower":0.09,"upper":0.11,"converged":true,"key":"k"}`)
	if r, err := checkReply(200, "miss", first); err != nil || r.Upper != 0.11 || !r.Converged {
		t.Errorf("good miss: %+v, %v", r, err)
	}
	for name, c := range map[string]struct {
		status int
		disp   string
		raw    []byte
	}{
		"not a 200":        {429, "", []byte(`{"error":"overloaded"}`)},
		"a never-seen hit": {200, "hit", first},
		"undecodable":      {200, "miss", []byte(`not json`)},
	} {
		if _, err := checkReply(c.status, c.disp, c.raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkHit("hit", append([]byte(nil), first...), first); err != nil {
		t.Errorf("identical hit failed: %v", err)
	}
	if err := checkHit("hit", []byte(`{"loss":0.1,"lower":0.09,"upper":0.12,"key":"k"}`), first); err == nil {
		t.Error("mismatched hit bytes accepted")
	}
	if err := checkHit("miss", first, first); err == nil {
		t.Error("a repeated body answered as a miss was accepted")
	}
	cells, _ := goodGrid()
	local := append([]cell(nil), cells...)
	if bad := checkIdentical(cells, local); len(bad) != 0 {
		t.Errorf("identical cells failed: %v", bad)
	}
	local[3].Upper = math.Nextafter(local[3].Upper, 1)
	if bad := checkIdentical(cells, local); len(bad) != 1 {
		t.Errorf("a served bound one ulp off the local one: %v, want one failure", bad)
	}
	if bad := checkIdentical(cells[:3], local); len(bad) != 1 {
		t.Errorf("a missing served cell: %v, want one failure", bad)
	}
}

func TestCheckFit(t *testing.T) {
	if err := checkFit(0.83, 0.85); err != nil {
		t.Errorf("close estimate failed: %v", err)
	}
	if err := checkFit(0.7, 0.85); err == nil {
		t.Error("estimate 0.15 off accepted")
	}
}

func TestSeededInputsRepeatAndDiffer(t *testing.T) {
	for _, seed := range []int64{1, 2, 17, 18, -3} {
		seen := map[int64]bool{}
		for pass := range tracePool {
			s := traceSeed(seed, pass)
			if s != traceSeed(seed, pass) {
				t.Fatal("the same seed and pass gave different traces")
			}
			if seen[s] {
				t.Errorf("seed %d pass %d repeats trace seed %d", seed, pass, s)
			}
			seen[s] = true
		}
	}
	if traceSeed(1, 0) == traceSeed(2, 0) || traceSeed(2, 1) == traceSeed(3, 1) {
		t.Error("neighbouring seeds sweep the same traces")
	}
	// A run draws every pass's SLOs from one generator seeded by the run's
	// seed: the same seed asks the same questions, other seeds other ones.
	slos := func(seed int64) []float64 {
		pack, rng := provisionPack(), rand.New(rand.NewSource(seed))
		var out []float64
		for pass := 0; pass < 3; pass++ {
			drawSLOs(pack, rng)
			for _, s := range pack {
				if f := s.opts.SLO / s.nominal; f < 0.97-1e-12 || f > 1.03+1e-12 {
					t.Errorf("scenario %s SLO factor %g outside [0.97, 1.03]", s.name, f)
				}
				out = append(out, s.opts.SLO)
			}
		}
		return out
	}
	if fmt.Sprint(slos(1)) != fmt.Sprint(slos(1)) {
		t.Fatal("the same seed gave different SLOs")
	}
	if fmt.Sprint(slos(1)) == fmt.Sprint(slos(2)) {
		t.Error("seeds 1 and 2 gave the same SLOs")
	}
}

func TestReferencesCoverThePool(t *testing.T) {
	refs, err := loadReferences("..")
	if err != nil {
		t.Fatal(err)
	}
	buffers, cutoffs := fig4Grid(false)
	for _, s := range tracePool {
		if len(refs[s]) != len(buffers)*len(cutoffs) {
			t.Errorf("trace %d has %d reference brackets, want %d", s, len(refs[s]), len(buffers)*len(cutoffs))
		}
	}
	if len(refs) != len(tracePool) {
		t.Errorf("%d traces in the reference file, %d in the pool", len(refs), len(tracePool))
	}
}

func TestReferencesRoundTripAndRefuseAnotherGrid(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, referencePath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	buffers, cutoffs := fig4Grid(false)
	r := references{Util: fig4Util, Buffers: buffers, Cutoffs: formatCutoffs(cutoffs), Traces: map[string][][2]float64{}}
	brackets := make([][2]float64, len(buffers)*len(cutoffs))
	for k := range brackets {
		brackets[k] = [2]float64{float64(k) / 1000, 1 / 3.0}
	}
	r.Traces["1"] = brackets
	if err := writeReferences(path, r); err != nil {
		t.Fatal(err)
	}
	refs, err := loadReferences(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := refs[1][[2]int{2, 3}]; got != (refCell{0.023, 1 / 3.0}) {
		t.Errorf("cell (2, 3) read back as %+v", got)
	}
	r.Buffers = append([]float64(nil), buffers...)
	r.Buffers[4] *= 1.01
	if err := writeReferences(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReferences(root); err == nil {
		t.Error("a reference file for another grid was accepted")
	}
}
