package cliflags

import (
	"bytes"
	"context"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newFlagSet registers every shared group on one FlagSet and returns it
// with its captured usage output.
func newFlagSet() (*flag.FlagSet, *Obs, *Journal, *Budget, *bytes.Buffer) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	o := ObsGroup(fs)
	j := JournalGroup(fs)
	b := BudgetGroup(fs)
	ModelGroup(fs)
	return fs, o, j, b, &buf
}

// TestCanonMatchesRegistrations is the self-test of the drift check: the
// usage text a FlagSet carrying every shared group actually prints must
// satisfy CheckUsage for every canonical flag. If a group constructor and
// the canon table ever disagree, this fails here — before any per-binary
// test runs.
func TestCanonMatchesRegistrations(t *testing.T) {
	fs, _, _, _, buf := newFlagSet()
	fs.PrintDefaults()
	if err := CheckUsage(buf.String(),
		"metrics", "trace", "progress", "pprof",
		"journal", "resume",
		"timeout", "model", "model-params",
	); err != nil {
		t.Fatal(err)
	}
}

func TestCheckUsageDetectsDrift(t *testing.T) {
	fs := flag.NewFlagSet("drift", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Int("attempts", 3, "a diverged help text")
	fs.PrintDefaults()
	err := CheckUsage(buf.String(), "attempts")
	if err == nil {
		t.Fatal("CheckUsage accepted a diverged flag")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("drift error does not name the flag: %v", err)
	}
	if err := CheckUsage(buf.String(), "metrics"); err == nil {
		t.Fatal("CheckUsage accepted a missing flag")
	}
	if err := CheckUsage("", "no-such-canonical-flag"); err == nil {
		t.Fatal("CheckUsage accepted a name outside the canon table")
	}
}

func TestGroupsParse(t *testing.T) {
	fs, o, j, b, _ := newFlagSet()
	err := fs.Parse([]string{
		"-metrics", "m.json", "-trace", "t.jsonl", "-progress", "-pprof", "localhost:0",
		"-journal", "j.jsonl", "-resume",
		"-timeout", "2m",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := o.CLIOptions("prog", io.Discard)
	if opts.Name != "prog" || opts.MetricsPath != "m.json" || opts.TracePath != "t.jsonl" ||
		opts.PprofAddr != "localhost:0" || !opts.Progress {
		t.Fatalf("CLIOptions = %+v", opts)
	}
	if *j.Path != "j.jsonl" || !*j.Resume {
		t.Fatalf("journal group = %q resume=%v", *j.Path, *j.Resume)
	}
	if *b.Timeout != 2*time.Minute {
		t.Fatalf("budget = %v", *b.Timeout)
	}
}

func TestBudgetContext(t *testing.T) {
	fs := flag.NewFlagSet("b", flag.ContinueOnError)
	b := BudgetGroup(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := b.Context(context.Background())
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero -timeout must not set a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("cancel func must cancel the derived context")
	}

	fs2 := flag.NewFlagSet("b2", flag.ContinueOnError)
	b2 := BudgetGroup(fs2)
	if err := fs2.Parse([]string{"-timeout", "1h"}); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := b2.Context(context.Background())
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Fatal("-timeout must set a deadline")
	}
}

func TestJournalOpen(t *testing.T) {
	// -resume without -journal is a usage error naming the program.
	fs := flag.NewFlagSet("j", flag.ContinueOnError)
	j := JournalGroup(fs)
	if err := fs.Parse([]string{"-resume"}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Open("prog", nil, io.Discard); err == nil || !strings.Contains(err.Error(), "prog: -resume requires -journal") {
		t.Fatalf("Open = %v, want the -resume usage error", err)
	}

	// No journal flags at all: no store, no error.
	fs2 := flag.NewFlagSet("j2", flag.ContinueOnError)
	j2 := JournalGroup(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if store, err := j2.Open("prog", nil, io.Discard); err != nil || store != nil {
		t.Fatalf("Open = (%v, %v), want (nil, nil)", store, err)
	}

	// A real journal round-trip: write one cell, reopen with -resume, and
	// the standard resuming notice names the program and the cell count.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	fs3 := flag.NewFlagSet("j3", flag.ContinueOnError)
	j3 := JournalGroup(fs3)
	if err := fs3.Parse([]string{"-journal", path}); err != nil {
		t.Fatal(err)
	}
	store, err := j3.Open("prog", nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Store("cell-1", map[string]float64{"loss": 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	fs4 := flag.NewFlagSet("j4", flag.ContinueOnError)
	j4 := JournalGroup(fs4)
	if err := fs4.Parse([]string{"-journal", path, "-resume"}); err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	resumed, err := j4.Open("prog", nil, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Completed() != 1 {
		t.Fatalf("resumed %d cells, want 1", resumed.Completed())
	}
	if got := warn.String(); !strings.Contains(got, "prog: resuming "+path+": 1 completed cell(s) on record") {
		t.Fatalf("resume notice = %q", got)
	}
}
