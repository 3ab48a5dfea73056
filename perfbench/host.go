package main

import (
	"syscall"
	"time"
)

// The untraced run's timings are corrected for CPU time the hypervisor
// stole. On a shared host the same work took up to twice as long in one
// minute as in the next, far more than a regression bound can allow, and
// the host's steal counter accounted for most of it. The benchmark reads
// that counter and the process's CPU time before and after each phase of a
// run (set-up, measurement). cpu ÷ (cpu + steal) is the share of the CPU
// time the process wanted that it got, and a wall time times that share is
// the time it would have taken with nothing stolen. tally.correct spreads
// the correction over single operations.

// hostMark is the process's CPU time and the host's steal time at one
// instant.
type hostMark struct{ cpu, steal time.Duration }

func markHost() hostMark { return hostMark{processCPU(), stealTime()} }

// cpuShare is the share of the CPU time the process wanted between two
// marks that it got.
func cpuShare(from, to hostMark) float64 {
	cpu, steal := to.cpu-from.cpu, to.steal-from.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

// clockTick is the unit of /proc/stat's counters (USER_HZ).
const clockTick = 10 * time.Millisecond

// stealTime is the host's steal counter summed over CPUs; 0 where
// /proc/stat is missing.
func stealTime() time.Duration {
	steal, _ := cpuTicks()
	return time.Duration(steal * float64(clockTick))
}

// processCPU is the CPU time all the process's threads have used. Stolen
// time does not enter it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
