package solver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// solveGoldenPath holds the committed results of goldenCases. It was
// generated once from the unpooled solve path, before pooled scratch became
// the solver's only path, and must never be regenerated: a mismatch means a
// change altered the solver's arithmetic, not that the file is stale.
const solveGoldenPath = "testdata/solve-golden.tsv"

type goldenCase struct {
	name string
	m    Model
	cfg  Config
}

// goldenCases lists the pinned solves in the order they run: random models
// under two configurations, then one model at four buffer sizes. Solved back
// to back, later cases run on scratch recycled from earlier cases of other
// sizes.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	cfgs := []Config{
		{InitialBins: 64, MaxBins: 1024, MaxIterations: 10000},
		{InitialBins: 32, MaxBins: 512, RelGap: 0.05, MaxIterations: 10000},
	}
	var cases []goldenCase
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 10; seed++ {
			if q, ok := randomModel(seed); ok {
				cases = append(cases, goldenCase{fmt.Sprintf("cfg%d/seed%d", ci, seed), q.Model(), cfg})
			}
		}
	}
	q, ok := randomModel(3)
	if !ok {
		t.Fatal("randomModel(3) invalid")
	}
	for _, scale := range []float64{2.0, 0.5, 1.0, 1.5} { // deliberately unsorted
		m := q.Model()
		m.Buffer *= scale
		cases = append(cases, goldenCase{fmt.Sprintf("buffer/x%g", scale), m, cfgs[0]})
	}
	return cases
}

// goldenLine renders one result as a golden row: the exact bits of every
// float, the diagnostics, and an FNV-1a hash over both occupancy vectors.
func goldenLine(name string, r Result) string {
	h := fnv.New64a()
	var word [8]byte
	for _, occ := range [2][]float64{r.LowerOccupancy, r.UpperOccupancy} {
		binary.LittleEndian.PutUint64(word[:], uint64(len(occ)))
		h.Write(word[:])
		for _, v := range occ {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("%s\t%016x\t%016x\t%016x\t%016x\t%d\t%d\t%t\t%s\t%016x",
		name, math.Float64bits(r.Loss), math.Float64bits(r.Lower), math.Float64bits(r.Upper),
		math.Float64bits(r.GridStep), r.Bins, r.Iterations, r.Converged, r.Degraded, h.Sum64())
}

// sameBits fails unless two results agree bit for bit, occupancy vectors
// included.
func sameBits(t *testing.T, got, want Result, label string) {
	t.Helper()
	if g, w := goldenLine(label, got), goldenLine(label, want); g != w {
		t.Fatalf("results differ:\n got  %s\n want %s", g, w)
	}
}

// readGolden returns the committed golden rows keyed by case name.
func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(solveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "\t")
		rows[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// solveGoldenCases solves the cases in order and reports each row that
// differs from the golden.
func solveGoldenCases(cases []goldenCase, golden map[string]string) []string {
	var bad []string
	for _, c := range cases {
		r, err := SolveModel(c.m, c.cfg)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", c.name, err))
			continue
		}
		if got, want := goldenLine(c.name, r), golden[c.name]; got != want {
			bad = append(bad, fmt.Sprintf("%s:\n got  %s\n want %s", c.name, got, want))
		}
	}
	return bad
}

// TestSolveGolden: solves on recycled scratch reproduce the committed
// results bit for bit, occupancy vectors included.
func TestSolveGolden(t *testing.T) {
	cases := goldenCases(t)
	golden := readGolden(t)
	if len(golden) != len(cases) {
		t.Fatalf("golden has %d rows, want %d", len(golden), len(cases))
	}
	for _, msg := range solveGoldenCases(cases, golden) {
		t.Error(msg)
	}
}

// TestBatchSolveBitIdentical: the random-model cases of both
// configurations, solved back to back in reverse order, so most run on
// scratch last held by a solve of another size than in TestSolveGolden,
// still match the golden bit for bit.
func TestBatchSolveBitIdentical(t *testing.T) {
	cases := goldenCases(t)
	var rev []goldenCase
	for i := len(cases) - 1; i >= 0; i-- {
		if !strings.HasPrefix(cases[i].name, "buffer/") {
			rev = append(rev, cases[i])
		}
	}
	for _, msg := range solveGoldenCases(rev, readGolden(t)) {
		t.Error(msg)
	}
}

// TestBatchSolveAllExactMatchesPerCell: one model's four buffer cells,
// solved in their unsorted input order and then in reverse, match their
// golden rows on both passes: a cell's result does not depend on which
// neighbor solved before it.
func TestBatchSolveAllExactMatchesPerCell(t *testing.T) {
	var cells []goldenCase
	for _, c := range goldenCases(t) {
		if strings.HasPrefix(c.name, "buffer/") {
			cells = append(cells, c)
		}
	}
	if len(cells) != 4 {
		t.Fatalf("%d buffer cells, want 4", len(cells))
	}
	golden := readGolden(t)
	for _, msg := range solveGoldenCases(cells, golden) {
		t.Error("input order: " + msg)
	}
	slices.Reverse(cells)
	for _, msg := range solveGoldenCases(cells, golden) {
		t.Error("reverse order: " + msg)
	}
}

// TestSolveGoldenConcurrent: the same cases dealt round-robin to 8
// goroutines running at once, so solves of different sizes trade scratch
// through the shared pool, still match the golden bit for bit. Each case
// is solved once, which keeps the test cheap enough to repeat under -race.
func TestSolveGoldenConcurrent(t *testing.T) {
	cases := goldenCases(t)
	golden := readGolden(t)
	const goroutines = 8
	errs := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		var mine []goldenCase
		for i := g; i < len(cases); i += goroutines {
			mine = append(mine, cases[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = solveGoldenCases(mine, golden)
		}()
	}
	wg.Wait()
	for g, bad := range errs {
		for _, msg := range bad {
			t.Errorf("goroutine %d: %s", g, msg)
		}
	}
}
