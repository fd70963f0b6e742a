package main

import (
	"strings"
	"testing"

	"lrd/internal/cliflags"
)

// TestSharedFlagsMatchCanon is this binary's half of the cross-command
// drift check: its own -h output must register every shared flag with the
// canonical name, default, and help text (see internal/cliflags). Each lrd
// command runs the same check over the shared flags it offers, so two
// binaries can only disagree about one by failing their own tests.
// lrdtrace offers the model flags only: it runs no solver and records no
// metrics, so the observability flags are not defined here.
func TestSharedFlagsMatchCanon(t *testing.T) {
	code, _, usage := runCapture("-h")
	if code != 2 {
		t.Fatalf("-h exit code = %d, want 2", code)
	}
	if err := cliflags.CheckUsage(usage, "model", "model-params"); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCapture("-metrics", "x", "-gen", "mtv")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -metrics") {
		t.Fatalf("-metrics: exit %d, stderr %q; want 2 and an undefined-flag error", code, stderr)
	}
}
