// Command perfbench is the repository's end-to-end benchmark. It runs
// one closed-loop workload against the skiptrie library (or its
// in-process network server) for a fixed window and prints, as the last
// line of standard output, one JSON object with the run's correctness,
// operation counts and metrics.
//
//	perfbench --workload map-churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an uninstrumented
// run; with --trace 1 it attaches the program's counters, profiles the
// CPU and reports per-layer metrics instead. See README.md for the
// workloads and what each metric is expected to respond to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// workers is the number of closed-loop client goroutines (or
// connections) every workload drives: the container this benchmark was
// designed on has two CPUs, and more clients than CPUs only measures the
// scheduler.
const workers = 2

// latencyCap is each client's initial latency buffer per class: room
// for a 20 s window of the busiest class without growing. The buffers
// live outside the Go heap (sampleBuf), so their size does not change
// the program's garbage collection.
const latencyCap = 1 << 21

// probeTime is the length of each host-speed probe, run just before
// and just after the window.
const probeTime = 500 * time.Millisecond

// An untraced run builds its structure at least minSetups times and
// until minSetupTime has been spent, at most maxSetups times; setup_s
// is the median, so one slow build on a shared host does not move it.
const (
	minSetups    = 3
	maxSetups    = 15
	minSetupTime = 4 * time.Second
)

// class is the latency class of one operation.
type class int

const (
	read   class = iota // Load, GET
	search              // Predecessor, SCAN
	write               // Store, Delete, SET
	numClasses
)

var classNames = [numClasses]string{"read", "search", "write"}

// tally is one client's record of the measured window.
type tally struct {
	lat      [numClasses]sampleBuf // per-operation latency in ns
	ops      uint64                // operations attempted
	failed   uint64                // operations whose result was wrong or refused
	firstErr string                // first failure, for the diagnostic line

	// Wire spans (wire-seq, traced only): time spent encoding and
	// flushing request windows, and time then blocked for responses.
	sendNs, recvNs, windows uint64
}

func newTally(capHint int) (*tally, error) {
	t := &tally{}
	for c := range t.lat {
		if err := t.lat[c].reserve(capHint); err != nil {
			t.release()
			return nil, err
		}
	}
	return t, nil
}

func (t *tally) release() {
	for c := range t.lat {
		t.lat[c].release()
	}
}

// record keeps one completed operation's latency. Callers count the
// attempt in ops themselves, so an operation that never completes is
// attempted but has no latency.
func (t *tally) record(c class, d time.Duration) {
	t.lat[c].add(clampNs(d))
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func clampNs(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// scenario is one benchmark workload. Its inputs are generated from the
// seed when it is constructed; setup builds the structure under test
// from them and may run again after teardown.
type scenario interface {
	// setup builds the structure and returns the time it took. traced
	// attaches the program's metrics collector.
	setup(traced bool) (time.Duration, error)
	// run drives one client per tally until the window ends. traced
	// records the wire spans.
	run(window time.Duration, tallies []*tally, traced bool)
	teardown()
	residentKeys() int
	// counters reads the program's public counters (traced runs only).
	counters() counters
	// reconcile checks the benchmark's operation count against the
	// program's own count over the same window.
	reconcile(ops uint64, before, after counters) error
	// setupLoad is the part of the last setup spent loading keys,
	// before any settling wait.
	setupLoad() time.Duration
}

func newWorkload(name string, seed uint64) (scenario, error) {
	switch name {
	case "map-churn":
		return newMapChurn(seed), nil
	case "wire-seq":
		return newWireSeq(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want map-churn or wire-seq)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: map-churn or wire-seq")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runBench(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runBench sets the workload up, measures one window and returns the
// result. An error means the run could not be measured at all; wrong
// outputs and failed reconciliation make the result incorrect instead.
func runBench(w scenario, name string, seed uint64, window time.Duration, traced bool) (*result, error) {
	var (
		workDir   string
		setupProf *cpuProfile
		err       error
	)
	if traced {
		if workDir, err = profileDir(name, seed); err != nil {
			return nil, err
		}
		if setupProf, err = startProfile(filepath.Join(workDir, "setup.pprof")); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var heapBase uint64
	for total := 0.0; ; w.teardown() {
		heapBase = liveHeap()
		d, err := w.setup(traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		total += d.Seconds()
		if traced || len(setups) == maxSetups || len(setups) >= minSetups && total >= minSetupTime.Seconds() {
			break
		}
	}
	heapAfter := liveHeap()
	if heapAfter <= heapBase {
		return nil, fmt.Errorf("live heap did not grow in setup (%d -> %d bytes)", heapBase, heapAfter)
	}
	heap := float64(heapAfter-heapBase) / float64(w.residentKeys())
	var setupSamples profileSamples
	if setupProf != nil {
		if setupSamples, err = setupProf.stop(); err != nil {
			return nil, err
		}
	}

	tallies := make([]*tally, workers)
	for i := range tallies {
		if tallies[i], err = newTally(latencyCap); err != nil {
			return nil, err
		}
		defer tallies[i].release()
	}
	var (
		c0, c1  counters
		m0, m1  runtime.MemStats
		runProf *cpuProfile
	)
	hostBefore := probeHost(probeTime)
	if traced {
		c0 = w.counters()
		runtime.ReadMemStats(&m0)
		if runProf, err = startProfile(filepath.Join(workDir, "run.pprof")); err != nil {
			return nil, err
		}
	}
	g0 := readGCCPU()
	d0 := readDiag()
	start := time.Now()
	w.run(window, tallies, traced)
	elapsed := time.Since(start)
	d1 := readDiag()
	g1 := readGCCPU()
	var runSamples profileSamples
	if traced {
		if runSamples, err = runProf.stop(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		c1 = w.counters()
	}
	hostAfter := probeHost(probeTime)
	w.teardown()

	all := merge(tallies)
	defer all.release()
	if all.ops == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	res := &result{Correct: all.failed == 0, Attempted: all.ops, Failed: all.failed, Metrics: map[string]metric{}}
	kops := float64(all.ops) / elapsed.Seconds() / 1e3

	fmt.Printf("run: workload=%s seed=%d traced=%v gomaxprocs=%d window_s=%.3f ops=%d failed=%d steal_s=%.2f proc_cpu_s=%.2f max_rss_mb=%d harness_heap_mb=%.1f host_mloads_per_s=%.2f,%.2f\n",
		name, seed, traced, runtime.GOMAXPROCS(0), elapsed.Seconds(), all.ops, all.failed,
		d1.steal-d0.steal, d1.procCPU-d0.procCPU, d1.maxRSS>>10, float64(heapBase)/(1<<20), hostBefore, hostAfter)
	if all.firstErr != "" {
		fmt.Printf("first failure: %s\n", all.firstErr)
	}

	if !traced {
		res.Metrics = endToEnd(all, kops, setups, heap)
		return res, nil
	}

	if err := w.reconcile(all.ops, c0, c1); err != nil {
		fmt.Printf("reconcile: FAILED: %v\n", err)
		res.Correct = false
	}
	layers, err := layerMetrics(w, all, elapsed, kops, setups[0], c0, c1, &m0, &m1, g1-g0, setupSamples, runSamples)
	if err != nil {
		fmt.Printf("profile: FAILED: %v\n", err)
		res.Correct = false
	}
	res.Metrics = layers
	return res, nil
}

// merge pools the clients' tallies.
func merge(tallies []*tally) *tally {
	all := &tally{}
	for _, t := range tallies {
		all.ops += t.ops
		all.failed += t.failed
		all.sendNs += t.sendNs
		all.recvNs += t.recvNs
		all.windows += t.windows
		if all.firstErr == "" {
			all.firstErr = t.firstErr
		}
		for c := range all.lat {
			all.lat[c].addAll(t.lat[c].s)
		}
	}
	return all
}

// endToEnd derives the end-to-end metrics of an untraced run and prints
// each quantile's sample count beside it.
func endToEnd(all *tally, kops float64, setups []float64, heap float64) map[string]metric {
	m := map[string]metric{
		"throughput_kops":    {kops, "kops"},
		"setup_s":            {median(setups), "s"},
		"heap_bytes_per_key": {heap, "B"},
	}
	for c := class(0); c < numClasses; c++ {
		q, n := quantiles(all.lat[c].s, 0.5, 0.9)
		fmt.Printf("latency: %s n=%d p50_us=%.3f p90_us=%.3f\n", classNames[c], n, q[0]/1e3, q[1]/1e3)
		m[classNames[c]+"_p50_us"] = metric{q[0] / 1e3, "us"}
		m[classNames[c]+"_p90_us"] = metric{q[1] / 1e3, "us"}
	}
	fmt.Printf("setup: runs_s=%s\n", fmtList(setups))
	return m
}

// runClients runs body on one goroutine per tally, labelled
// role=client for the CPU profile, until the window ends.
func runClients(window time.Duration, tallies []*tally, body func(w int, t *tally, deadline time.Time)) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w, t := range tallies {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("role", "client"), func(context.Context) {
			defer wg.Done()
			body(w, t, deadline)
		})
	}
	wg.Wait()
}

// profileDir returns the directory a traced run writes its profiles
// to, under .bench_build in the working directory (ignored by git).
func profileDir(name string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "profiles", fmt.Sprintf("%s-%d", name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}

// liveHeap forces collections and returns the bytes of live heap
// objects. Objects with finalizers outlive the first collection after
// they become garbage, so it collects until the heap stops shrinking.
func liveHeap() uint64 {
	var ms runtime.MemStats
	prev := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= prev-prev/100 {
			break
		}
		prev = ms.HeapAlloc
	}
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}
