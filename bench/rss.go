package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS starts a new peak resident set for a process ("self" or a
// process id) through /proc/PID/clear_refs, so that the peak read at the
// end of the measured phase excludes set-up. Where the kernel refuses the
// reset, the peak includes set-up, which only makes it more cautious.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB, or 0 when
// /proc does not report it.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
