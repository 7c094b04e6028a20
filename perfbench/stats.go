package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs is not modified. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// weightedQuantile returns the smallest value v of xs such that the values
// up to v carry at least a q share of the total weight: the q-quantile of
// a sample in which xs[i] occurs ws[i] times.
func weightedQuantile(xs, ws []float64, q float64) float64 {
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	cum := 0.0
	for _, i := range idx {
		cum += ws[i]
		if cum >= q*total {
			return xs[i]
		}
	}
	return math.NaN()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// allocSample reads the process's cumulative heap allocation without
// stopping the world (runtime/metrics, unlike runtime.ReadMemStats).
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

const mib = 1 << 20

// resetPeakRSS returns freed memory to the OS and resets this process's
// high-water RSS to its current RSS, so that the next peakRSSMB("self")
// reads the peak of what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns a process's high-water resident set size (VmHWM) from
// /proc/<pid>/status, in MiB. pid "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / mib, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
