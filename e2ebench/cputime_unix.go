//go:build unix

package main

import (
	"syscall"
	"time"
)

// rusageTime returns the process's user plus system CPU time at the
// microsecond resolution getrusage offers.
func rusageTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
