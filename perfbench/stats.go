package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// trimmedMean is the mean of xs without its lowest and highest tenth
// (rounded down); xs is left untouched. The host's speed switches
// between a fast and a slow state every second or so. A median over
// rounds jumps from one state to the other as their shares pass one
// half, while a trimmed mean moves with the shares and still drops
// outlying rounds.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// durQuantile is quantile over durations, in microseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}

// acc accumulates a mean.
type acc struct {
	sum time.Duration
	n   int64
}

func (a *acc) add(d time.Duration) { a.sum += d; a.n++ }

// ns returns the mean in nanoseconds (0 without samples).
func (a acc) ns() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}

// CPU clocks for cpuTime.
const (
	processCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: user+system time of all threads
	threadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread's
)

// cpuTime reads a CPU-time clock. Unlike getrusage, which Linux
// reports in scheduler-tick-scaled parts, these clocks count the
// nanoseconds actually run.
func cpuTime(clock int) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
