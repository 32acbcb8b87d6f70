//go:build unix

package main

import "syscall"

// rusage reads the process's user + system CPU time and its peak resident
// set size (ru_maxrss is KiB on Linux, which is where this is measured).
func rusage() (cpuNs, peakRSSBytes int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), int64(ru.Maxrss) << 10
}
