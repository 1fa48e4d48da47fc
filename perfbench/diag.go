package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// diag is the host and process state printed beside each run, so a run
// slowed by a noisy neighbour (steal time) can be told from a
// regression.
type diag struct {
	steal   float64 // host CPU seconds stolen by the hypervisor, all CPUs
	procCPU float64 // this process's user+system CPU seconds
	maxRSS  int64   // this process's peak resident set, KiB
}

func readDiag() diag {
	var d diag
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		d.procCPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		d.maxRSS = ru.Maxrss
	}
	d.steal = stealSeconds()
	return d
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// stealSeconds reads the aggregate steal column of /proc/stat. It
// returns 0 where the file is missing; the figure is diagnostic only.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / 100 // USER_HZ
		}
	}
	return 0
}

// readGCCPU returns the runtime's estimate of CPU seconds spent in the
// garbage collector so far.
func readGCCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// probeLen is the host-speed probe's array length: 4 Mi uint32s (16 MB),
// larger than a core's private caches.
const probeLen = 1 << 22

// probeHost runs a fixed pointer chase on every client CPU for d and
// returns its rate in millions of loads per second. It is diagnostic
// only: neighbours sharing the host's cores slow the program without
// showing as steal time, and the probe shows them. A full-period linear
// congruential map makes the chase visit every slot in an order the
// hardware prefetchers cannot follow.
func probeHost(d time.Duration) float64 {
	next := make([]uint32, probeLen)
	for i := range next {
		next[i] = uint32((uint64(i)*1664525 + 1013904223) % probeLen)
	}
	counts := make([]uint64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i, n := uint32(w)*(probeLen/workers), uint64(0)
			for time.Now().Before(deadline) {
				for k := 0; k < 1024; k++ {
					i = next[i]
				}
				n += 1024
			}
			counts[w] = n + uint64(i&1) // keep the chase live
		}()
	}
	wg.Wait()
	var total uint64
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(start).Seconds() / 1e6
}
