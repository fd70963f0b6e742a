package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lrd/internal/obs"
)

// runCapture invokes run with captured stdout/stderr.
func runCapture(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunRejectsBadFlag(t *testing.T) {
	code, _, stderr := runCapture("-no-such-flag")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunRequiresExperiment(t *testing.T) {
	code, _, stderr := runCapture()
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "-exp is required") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	code, _, stderr := runCapture("-exp", "nosuch")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	// The diagnostic is an slog record, which escapes the inner quotes.
	if !strings.Contains(stderr, "unknown experiment") || !strings.Contains(stderr, "nosuch") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunResumeRequiresJournal(t *testing.T) {
	code, _, stderr := runCapture("-exp", "fig4", "-resume")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "-resume requires -journal") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runCapture("-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, id := range []string{"fig2", "fig4", "fig14", "modelfit"} {
		if !strings.Contains(stdout, id) {
			t.Fatalf("-list output missing %q:\n%s", id, stdout)
		}
	}
}

func TestRunQuickExperimentToStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) experiment")
	}
	code, stdout, stderr := runCapture("-exp", "fig3", "-quick")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "# fig3:") || !strings.Contains(stdout, "rate_mbps") {
		t.Fatalf("unexpected output:\n%s", stdout)
	}
}

// TestRunInterruptAndResume is the end-to-end crash-recovery check: a
// journaled sweep interrupted by a tiny -timeout, resumed with -resume,
// must write a TSV byte-identical to an uninterrupted run's, and so must a
// resume from a journal that really is partial (five of twelve cells),
// replaying exactly the journaled cells.
func TestRunInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.tsv")
	code, _, stderr := runCapture("-exp", "fig4", "-quick", "-seed", "3", "-out", cleanPath)
	if code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, stderr)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "sweep.journal")
	interruptedPath := filepath.Join(dir, "interrupted.tsv")
	// A 1 ns budget cancels the sweep immediately; the journal still opens
	// and whatever cells complete are checkpointed.
	code, _, _ = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-timeout", "1ns", "-journal", jpath, "-out", interruptedPath)
	if code == 0 {
		t.Fatal("interrupted run should exit nonzero")
	}
	interrupted, err := os.ReadFile(interruptedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(interrupted, []byte("# interrupted")) {
		t.Fatalf("interrupted TSV lacks the interruption trailer:\n%s", interrupted)
	}

	resumedPath := filepath.Join(dir, "resumed.tsv")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-journal", jpath, "-resume", "-out", resumedPath)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resumed TSV differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s", resumed, clean)
	}

	// A deterministic crash mid-sweep: a clean run's journal cut back to
	// its first five records, as if the process died after five cells. The
	// resume must replay exactly those five and recompute the rest.
	fullJournal := filepath.Join(dir, "full.journal")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-journal", fullJournal, "-out", filepath.Join(dir, "journaled.tsv"))
	if code != 0 {
		t.Fatalf("journaled run: exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(fullJournal)
	if err != nil {
		t.Fatal(err)
	}
	records := bytes.SplitAfter(raw, []byte("\n"))
	if len(records) < 6 {
		t.Fatalf("journal holds %d records, want more than 5", len(records))
	}
	partialJournal := filepath.Join(dir, "partial.journal")
	if err := os.WriteFile(partialJournal, bytes.Join(records[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	partialPath, metricsPath := filepath.Join(dir, "partial.tsv"), filepath.Join(dir, "metrics.json")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-journal", partialJournal, "-resume", "-metrics", metricsPath, "-out", partialPath)
	if code != 0 {
		t.Fatalf("partial resume: exit %d, stderr: %s", code, stderr)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if raw, err := os.ReadFile(metricsPath); err != nil || json.Unmarshal(raw, &snap) != nil {
		t.Fatalf("reading %s: %v", metricsPath, err)
	}
	if got := snap.Counters[obs.MetricCoreCellsResumed]; got != 5 {
		t.Fatalf("%s = %v, want 5", obs.MetricCoreCellsResumed, got)
	}
	if got, err := os.ReadFile(partialPath); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("partially resumed TSV differs from the clean run (%v):\n%s", err, got)
	}
	// No temp-file litter from the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("atomic write left temp file %q", e.Name())
		}
	}
}

// TestSharedJournalAcrossExperiments is the every-figure loop in small: two
// experiments written to their own -out files through one -journal
// -resume that does not exist yet, then both again. The second pass
// replays the shared journal, and all four TSVs equal journal-less runs.
func TestSharedJournalAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	dir := t.TempDir()
	ids := []string{"fig4", "fig9"}
	clean := map[string][]byte{}
	for _, id := range ids {
		path := filepath.Join(dir, id+".clean.tsv")
		if code, _, stderr := runCapture("-exp", id, "-quick", "-seed", "3", "-out", path); code != 0 {
			t.Fatalf("%s clean run: exit %d, stderr: %s", id, code, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		clean[id] = raw
	}

	jpath := filepath.Join(dir, "figs.journal")
	for pass := 1; pass <= 2; pass++ {
		for _, id := range ids {
			out := filepath.Join(dir, id+".pass"+strconv.Itoa(pass)+".tsv")
			metricsPath := filepath.Join(dir, id+".pass"+strconv.Itoa(pass)+".json")
			code, _, stderr := runCapture("-exp", id, "-quick", "-seed", "3",
				"-journal", jpath, "-resume", "-metrics", metricsPath, "-out", out)
			if code != 0 {
				t.Fatalf("%s pass %d: exit %d, stderr: %s", id, pass, code, stderr)
			}
			if pass == 2 {
				if !strings.Contains(stderr, "resuming") {
					t.Fatalf("%s pass 2 did not resume from the shared journal: %q", id, stderr)
				}
				// Every cell of the second pass comes from the journal: one
				// per TSV line after the title and the header.
				var snap struct {
					Counters map[string]float64 `json:"counters"`
				}
				if raw, err := os.ReadFile(metricsPath); err != nil || json.Unmarshal(raw, &snap) != nil {
					t.Fatalf("reading %s: %v", metricsPath, err)
				}
				cells := len(strings.Split(strings.TrimSpace(string(clean[id])), "\n")) - 2
				if got := snap.Counters[obs.MetricCoreCellsResumed]; got != float64(cells) {
					t.Fatalf("%s pass 2: %s = %v, want %d", id, obs.MetricCoreCellsResumed, got, cells)
				}
			}
			if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, clean[id]) {
				t.Fatalf("%s pass %d: TSV differs from the journal-less run (%v):\n%s", id, pass, err, got)
			}
		}
	}
}

// TestGoldenFluidBitIdentity pins the sweep output byte for byte: the
// default model and the explicit -model=fluid reproduce the committed
// goldens. Refactors must leave them untouched. A change that declares a
// numerics change under the solver's accuracy contract may regenerate
// them, provided every new bracket overlaps its old row within the
// roundoff slack and the old → new rows are listed with the change.
func TestGoldenFluidBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	cases := []struct {
		golden string
		args   []string
	}{
		{"golden-fig4-quick-seed3.tsv", []string{"-exp", "fig4", "-quick", "-seed", "3"}},
		{"golden-fig9-quick-seed2.tsv", []string{"-exp", "fig9", "-quick", "-seed", "2"}},
		{"golden-fig10-quick-seed1.tsv", []string{"-exp", "fig10", "-quick", "-seed", "1"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, extra := range [][]string{nil, {"-model", "fluid"}} {
			out := filepath.Join(t.TempDir(), "out.tsv")
			args := append(append([]string{}, c.args...), "-out", out)
			args = append(args, extra...)
			code, _, stderr := runCapture(args...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v: output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
					args, c.golden, got, want)
			}
		}
	}
}

// TestRunNonFluidInterruptAndResume runs the crash-recovery path end to end
// on a non-fluid model: an interrupted journaled mmfq sweep, resumed, must
// write a TSV byte-identical to an uninterrupted mmfq run's.
func TestRunNonFluidInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.tsv")
	code, _, stderr := runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "mmfq", "-out", cleanPath)
	if code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, stderr)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "sweep.journal")
	code, _, _ = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "mmfq", "-timeout", "1ns", "-journal", jpath,
		"-out", filepath.Join(dir, "interrupted.tsv"))
	if code == 0 {
		t.Fatal("interrupted run should exit nonzero")
	}

	resumedPath := filepath.Join(dir, "resumed.tsv")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "mmfq", "-journal", jpath, "-resume", "-out", resumedPath)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resumed mmfq TSV differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s", resumed, clean)
	}
}

// TestRunModelJournalNamespacing: a journal written under one model must
// not be replayed into a run with another — the model spec is part of the
// cell-key namespace.
func TestRunModelJournalNamespacing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.journal")
	fluidPath := filepath.Join(dir, "fluid.tsv")
	code, _, stderr := runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-journal", jpath, "-out", fluidPath)
	if code != 0 {
		t.Fatalf("fluid run: exit %d, stderr: %s", code, stderr)
	}

	// Resuming under mmfq must recompute every cell (no cross-model replay):
	// its output equals a journal-free mmfq run, not the fluid table.
	mmfqPath := filepath.Join(dir, "mmfq.tsv")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "mmfq", "-journal", jpath, "-resume", "-out", mmfqPath)
	if code != 0 {
		t.Fatalf("mmfq resumed run: exit %d, stderr: %s", code, stderr)
	}
	freshPath := filepath.Join(dir, "fresh.tsv")
	code, _, stderr = runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "mmfq", "-out", freshPath)
	if code != 0 {
		t.Fatalf("mmfq fresh run: exit %d, stderr: %s", code, stderr)
	}
	mmfqOut, err := os.ReadFile(mmfqPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	fluidOut, err := os.ReadFile(fluidPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mmfqOut, fresh) {
		t.Fatal("mmfq run resumed from a fluid journal differs from a fresh mmfq run")
	}
	if bytes.Equal(mmfqOut, fluidOut) {
		t.Fatal("mmfq output identical to fluid output — journal replayed across models")
	}
}

// TestRunMultiModelColumns: a comma-separated -model list stacks the runs
// under a leading "model" column.
func TestRunMultiModelColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (quick) sweeps")
	}
	code, stdout, stderr := runCapture("-exp", "fig4", "-quick", "-seed", "3",
		"-model", "fluid,mmfq")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 3 {
		t.Fatalf("too few output lines:\n%s", stdout)
	}
	if !strings.HasPrefix(lines[1], "model\t") {
		t.Fatalf("header lacks leading model column: %q", lines[1])
	}
	var sawFluid, sawMMFQ bool
	for _, l := range lines[2:] {
		sawFluid = sawFluid || strings.HasPrefix(l, "fluid\t")
		sawMMFQ = sawMMFQ || strings.HasPrefix(l, "mmfq\t")
	}
	if !sawFluid || !sawMMFQ {
		t.Fatalf("rows missing a model (fluid=%v, mmfq=%v):\n%s", sawFluid, sawMMFQ, stdout)
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	code, _, stderr := runCapture("-exp", "fig4", "-model", "nosuch")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown model") {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestWarmTSVDeterministicAndBracketed: -warm output is reproducible run to
// run, and every warm row still brackets its loss (the valid-bounds
// contract); it is allowed to differ from the cold TSV only in bound
// digits.
func TestWarmTSVDeterministicAndBracketed(t *testing.T) {
	code, first, stderr := runCapture("-exp", "fig4", "-quick", "-warm")
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, stderr)
	}
	code, second, stderr := runCapture("-exp", "fig4", "-quick", "-warm")
	if code != 0 {
		t.Fatalf("second warm run exit %d: %s", code, stderr)
	}
	if first != second {
		t.Fatalf("warm TSVs differ between runs:\n%s\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) < 3 {
		t.Fatalf("warm TSV too short:\n%s", first)
	}
	header := strings.Split(lines[1], "\t")
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, name := range []string{"loss", "lower", "upper"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("warm TSV header missing %q: %v", name, header)
		}
	}
	for _, line := range lines[2:] {
		f := strings.Split(line, "\t")
		var loss, lo, hi float64
		for name, dst := range map[string]*float64{"loss": &loss, "lower": &lo, "upper": &hi} {
			v, err := strconv.ParseFloat(f[col[name]], 64)
			if err != nil {
				t.Fatalf("row %q: parsing %s: %v", line, name, err)
			}
			*dst = v
		}
		if lo > hi {
			t.Fatalf("warm row has inverted bounds [%g, %g]: %q", lo, hi, line)
		}
		// Loss 0 with positive bounds is the loss-floor clamp (upper below
		// 1e-10 reports zero loss), not a bracket violation.
		if loss != 0 && !(lo <= loss && loss <= hi) {
			t.Fatalf("warm row has invalid bracket [%g, %g] around %g: %q", lo, hi, loss, line)
		}
	}
}
