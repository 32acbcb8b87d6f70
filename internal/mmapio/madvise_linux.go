//go:build linux

package mmapio

import "syscall"

// madvise translates an Advice to the corresponding MADV_* hint.
func madvise(b []byte, a Advice) error {
	adv := syscall.MADV_RANDOM
	if a == AdviceSequential {
		adv = syscall.MADV_SEQUENTIAL
	}
	return syscall.Madvise(b, adv)
}
