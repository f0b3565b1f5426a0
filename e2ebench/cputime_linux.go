package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the CPU time of the whole process (all threads, user
// and system) with nanosecond resolution.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return rusageTime()
	}
	return time.Duration(ts.Nano())
}
