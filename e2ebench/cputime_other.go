//go:build unix && !linux

package main

import "time"

// cpuTime returns the process's CPU time (getrusage resolution).
func cpuTime() time.Duration { return rusageTime() }
