package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets a test re-exec this binary as a real lrdsweep process: when
// LRDSWEEP_WORKER_ARGS is set (US-separated argv), the process runs the
// command body instead of the test suite. That gives the chaos test below a
// genuine subprocess it can SIGKILL mid-sweep.
func TestMain(m *testing.M) {
	if argv := os.Getenv("LRDSWEEP_WORKER_ARGS"); argv != "" {
		os.Exit(run(strings.Split(argv, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestRunWorkerIDRequiresJournal(t *testing.T) {
	code, _, stderr := runCapture("-exp", "fig4", "-worker-id", "w1")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "-worker-id requires -journal") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestRunRejectsZeroLeaseTTL(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCapture("-exp", "fig4", "-quick",
		"-journal", filepath.Join(dir, "j"), "-worker-id", "w1", "-lease-ttl", "0s")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "TTL") {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestRunDistributedFourWorkersBitIdentity is the headline distributed
// guarantee: four coordinator-free workers sharing one journal each produce
// a complete TSV byte-identical to a single-process run of the same sweep.
func TestRunDistributedFourWorkersBitIdentity(t *testing.T) {
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

	jpath := filepath.Join(dir, "shared.journal")
	const workers = 4
	var wg sync.WaitGroup
	codes := make([]int, workers)
	stderrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, stderrs[i] = runCapture("-exp", "fig4", "-quick", "-seed", "3",
				"-journal", jpath, "-worker-id", fmt.Sprintf("w%d", i+1),
				"-workers", "2", "-lease-ttl", "30s",
				"-out", filepath.Join(dir, fmt.Sprintf("w%d.tsv", i+1)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if codes[i] != 0 {
			t.Fatalf("worker %d: exit %d, stderr: %s", i+1, codes[i], stderrs[i])
		}
	}
	for i := 0; i < workers; i++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("w%d.tsv", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean) {
			t.Fatalf("worker %d TSV differs from single-process run:\n--- worker ---\n%s\n--- clean ---\n%s", i+1, got, clean)
		}
	}
}

// TestRunDistributedSurvivesSIGKILL is the chaos e2e: three real lrdsweep
// processes share one journal, one is SIGKILLed mid-sweep, and the
// survivors re-lease its stranded cells and finish — each writing a TSV
// byte-identical to a clean single-process run. SIGKILL (not SIGINT) is the
// point: the victim gets no chance to release leases or flush anything.
func TestRunDistributedSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real sweep subprocesses")
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

	jpath := filepath.Join(dir, "shared.journal")
	worker := func(id string) *exec.Cmd {
		argv := []string{"-exp", "fig4", "-quick", "-seed", "3",
			"-journal", jpath, "-worker-id", id, "-workers", "2",
			"-lease-ttl", "1s", "-out", filepath.Join(dir, id+".tsv")}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "LRDSWEEP_WORKER_ARGS="+strings.Join(argv, "\x1f"))
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		return cmd
	}

	victim := worker("victim")
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	s1, s2 := worker("survivor-1"), worker("survivor-2")
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill the victim mid-grid. If the sweep happens to finish first the
	// kill is a no-op and the test degrades to the no-crash fleet case.
	time.Sleep(150 * time.Millisecond)
	_ = victim.Process.Kill()
	_, _ = victim.Process.Wait()

	for _, s := range []*exec.Cmd{s1, s2} {
		if err := s.Wait(); err != nil {
			t.Fatalf("survivor exited dirty: %v\n%s", err, s.Stdout.(*bytes.Buffer).String())
		}
	}
	for _, id := range []string{"survivor-1", "survivor-2"} {
		got, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean) {
			t.Fatalf("%s TSV differs from clean run after SIGKILL chaos:\n--- got ---\n%s\n--- clean ---\n%s", id, got, clean)
		}
	}
}
