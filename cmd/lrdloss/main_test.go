package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestRunRequiresMarginal(t *testing.T) {
	code, _, stderr := runCapture("-hurst", "0.8", "-epoch", "0.05", "-util", "0.8", "-buffer", "0.5")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "marginal is required") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	code, _, stderr := runCapture("-marginal", "0:0.5,2:0.5", "-hurst", "0.8",
		"-epoch", "0.05", "-util", "0.8", "-buffer", "0.5", "-model", "nosuch")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown model") {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestRunSolveToOut solves a small queue and writes the result atomically.
func TestRunSolveToOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solve")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "loss.txt")
	code, stdout, stderr := runCapture("-marginal", "0:0.5,2:0.5", "-hurst", "0.8",
		"-epoch", "0.05", "-cutoff", "1", "-util", "0.8", "-buffer", "0.1", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("with -out, stdout should be empty, got %q", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("loss ")) || !bytes.Contains(raw, []byte("bounds [")) {
		t.Fatalf("result file malformed:\n%s", raw)
	}
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

// TestRunModelVerbose: a non-fluid model solve surfaces its diagnostics
// (the mmfq oracle line) in verbose mode.
func TestRunModelVerbose(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real solve")
	}
	code, stdout, stderr := runCapture("-marginal", "0:0.5,2:0.5", "-hurst", "0.8",
		"-epoch", "0.05", "-cutoff", "1", "-util", "0.8", "-buffer", "0.1",
		"-model", "mmfq", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "source mmfq{") || !strings.Contains(stdout, "exact overflow") {
		t.Fatalf("verbose mmfq output missing diagnostics:\n%s", stdout)
	}
}
