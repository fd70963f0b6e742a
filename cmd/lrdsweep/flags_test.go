package main

import (
	"testing"

	"lrd/internal/cliflags"
)

// TestSharedFlagsMatchCanon is this binary's half of the cross-command
// drift check: its own -h output must register every shared flag with the
// canonical name, default, and help text (see internal/cliflags). Each lrd
// command runs the same check over the shared flags it offers, so two
// binaries can only disagree about one by failing their own tests.
func TestSharedFlagsMatchCanon(t *testing.T) {
	code, _, usage := runCapture("-h")
	if code != 2 {
		t.Fatalf("-h exit code = %d, want 2", code)
	}
	if err := cliflags.CheckUsage(usage,
		"metrics", "trace", "progress", "pprof",
		"journal", "resume", "worker-id", "lease-ttl", "workers",
		"retries", "retry-backoff", "expect-cells", "warm",
		"timeout", "point-timeout", "model", "model-params",
		"fleet", "attempts", "hedge-after", "breaker-fails", "breaker-cooldown",
	); err != nil {
		t.Fatal(err)
	}
}
