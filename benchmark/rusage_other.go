//go:build !unix

package main

// rusage is unavailable off unix; the CPU and RSS metrics then read 0.
func rusage() (cpuNs, peakRSSBytes int64) { return 0, 0 }
