package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so the next peakRSSMB reads the peak of what runs in
// between rather than an earlier body's. It reports whether the counter
// could be reset; where it cannot, peakRSSMB falls back to the process
// lifetime peak.
func resetPeakRSS() bool {
	// Two collections (FreeOSMemory runs the second) empty sync.Pools
	// entirely, so no body inherits memory pooled by the one before.
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the peak resident set size in MiB: VmHWM from
// /proc/self/status, or getrusage's lifetime maximum where that is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("VmHWM:")) {
				continue
			}
			f := bytes.Fields(line[len("VmHWM:"):])
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
}
