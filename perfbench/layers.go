package main

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"

	"skiptrie"
	"skiptrie/internal/server"
)

// counters is a reading of the program's public counters. Workloads
// fill the parts they cross; the rest stay zero.
type counters struct {
	metrics skiptrie.MetricsSnapshot // Map or namespace collector
	shards  int                      // wire-seq: namespace shard count
	srv     server.Stats             // wire-seq
	conn    connCounts               // wire-seq: client side of every connection
	sets    uint64                   // wire-seq: SET requests sent, setup included
}

// minNamedShare is the share of profile samples the named layers must
// cover; below it the attribution is too incomplete to read.
const minNamedShare = 0.95

// layerMetrics derives the per-layer metrics of a traced run from its
// counters, memory statistics and CPU profiles. Per-op figures divide
// by the window's operation count.
func layerMetrics(w scenario, all *tally, elapsed time.Duration, kops, setupS float64,
	c0, c1 counters, m0, m1 *runtime.MemStats, gcCPU float64, setupProf, runProf profileSamples) (map[string]metric, error) {
	ops := float64(all.ops)
	perOp := func(x float64) float64 { return x / ops }
	out := map[string]metric{
		"traced.throughput_kops": {kops, "kops"},
		"setup.settle_s":         {setupS - w.setupLoad().Seconds(), "s"},
		"setup.load_s":           {w.setupLoad().Seconds(), "s"},
	}

	// Work counters of the structure (Metrics collector).
	d0, d1 := c0.metrics, c1.metrics
	out["skiplist.hops_per_op"] = metric{perOp(float64(d1.Hops - d0.Hops)), "count"}
	out["xfast.probes_per_op"] = metric{perOp(float64(d1.Probes - d0.Probes)), "count"}
	out["xfast.touch_rate"] = metric{perOp(float64(d1.Touches - d0.Touches)), "ratio"}
	out["dcss.cas_per_op"] = metric{perOp(float64(d1.CAS - d0.CAS)), "count"}
	out["dcss.dcss_per_op"] = metric{perOp(float64(d1.DCSS - d0.DCSS)), "count"}

	// Resharding over the whole traced process, setup included: the
	// balancer's work lands in setup by design.
	r := d1.Reshard
	out["reshard.splits"] = metric{float64(r.Splits), "count"}
	out["reshard.merges"] = metric{float64(r.Merges), "count"}
	out["reshard.window_splits_merges"] = metric{float64(r.Splits + r.Merges - d0.Reshard.Splits - d0.Reshard.Merges), "count"}
	out["reshard.moved_keys_per_key"] = metric{float64(r.MovedKeys) / float64(w.residentKeys()), "ratio"}
	out["reshard.migrate_s"] = metric{r.MigrateTime.Seconds(), "s"}
	out["shard.count"] = metric{float64(c1.shards), "count"}
	out["shard.skew"] = metric{r.Skew, "ratio"}

	// Server and wire.
	srv1 := c1.srv
	out["server.batched_set_share"] = metric{ratio(float64(srv1.BatchedSets), float64(c1.sets)), "ratio"}
	out["server.busy_share"] = metric{ratio(float64(srv1.BusyRejects), float64(srv1.Frames)), "ratio"}
	cn := c1.conn.sub(c0.conn)
	out["wire.bytes_per_op"] = metric{perOp(float64(cn.bytesOut + cn.bytesIn)), "B"}
	out["wire.client_writes_per_op"] = metric{perOp(float64(cn.writes)), "count"}
	out["wire.client_reads_per_op"] = metric{perOp(float64(cn.reads)), "count"}
	out["wire.send_us"] = metric{ratio(float64(all.sendNs), float64(all.windows)) / 1e3, "us"}
	out["wire.recv_wait_us"] = metric{ratio(float64(all.recvNs), float64(all.windows)) / 1e3, "us"}

	// Go runtime.
	out["runtime.allocs_per_op"] = metric{perOp(float64(m1.Mallocs - m0.Mallocs)), "count"}
	out["runtime.alloc_bytes_per_op"] = metric{perOp(float64(m1.TotalAlloc - m0.TotalAlloc)), "B"}
	out["runtime.gc_cycles_per_mop"] = metric{perOp(float64(m1.NumGC-m0.NumGC)) * 1e6, "count"}
	out["runtime.gc_cpu_ns_per_op"] = metric{perOp(gcCPU * 1e9), "ns"}

	// CPU profile of the window, charged to layers by leaf package.
	byLayer := map[string]int64{}
	otherBy := map[string]int64{}
	var total, alloc, client, srv int64
	for _, s := range runProf {
		total += s.ns
		l := layerOf(s.stack)
		byLayer[l] += s.ns
		if l == "other" {
			otherBy[otherPkg(s.stack)] += s.ns
		}
		if inStack(s.stack, func(fn string) bool { return fn == "runtime.mallocgc" }) {
			alloc += s.ns
		}
		switch s.role {
		case "client":
			client += s.ns
		case "server":
			srv += s.ns
		}
	}
	for _, l := range layerNames {
		out[l+".cpu_ns_per_op"] = metric{perOp(float64(byLayer[l])), "ns"}
	}
	out["runtime.alloc_cpu_ns_per_op"] = metric{perOp(float64(alloc)), "ns"}
	out["label.client.cpu_ns_per_op"] = metric{perOp(float64(client)), "ns"}
	out["label.server.cpu_ns_per_op"] = metric{perOp(float64(srv)), "ns"}
	out["process.cpu_ns_per_op"] = metric{perOp(float64(total)), "ns"}

	// The balancer's CPU: every stack through the reshard package, in
	// setup and in the window.
	var reshardNs int64
	isReshard := func(fn string) bool { return pkgOf(fn) == "skiptrie/internal/reshard" }
	for _, p := range []profileSamples{setupProf, runProf} {
		for _, s := range p {
			if inStack(s.stack, isReshard) {
				reshardNs += s.ns
			}
		}
	}
	out["reshard.cpu_s"] = metric{float64(reshardNs) / 1e9, "s"}

	named := 1.0
	if total > 0 {
		named = 1 - float64(byLayer["other"])/float64(total)
	}
	out["profile.named_share"] = metric{named, "ratio"}
	printLayers(out)
	printOther(otherBy, total)
	if total == 0 {
		return out, fmt.Errorf("the window's CPU profile holds no samples")
	}
	if named < minNamedShare {
		return out, fmt.Errorf("named layers cover %.1f%% of profile samples, want at least %.0f%%", named*100, minNamedShare*100)
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printLayers(m map[string]metric) {
	var b strings.Builder
	for _, l := range layerNames {
		fmt.Fprintf(&b, " %s=%.0f", l, m[l+".cpu_ns_per_op"].Value)
	}
	fmt.Printf("cpu ns/op by layer:%s\n", b.String())
}

// printOther lists the packages whose samples were charged to "other",
// largest first, with their share of the profile.
func printOther(by map[string]int64, total int64) {
	if len(by) == 0 {
		return
	}
	pkgs := slices.SortedFunc(maps.Keys(by), func(a, b string) int { return cmp.Compare(by[b], by[a]) })
	var b strings.Builder
	for _, p := range pkgs {
		fmt.Fprintf(&b, " %s=%.2f%%", p, 100*float64(by[p])/float64(total))
	}
	fmt.Printf("profile other:%s\n", b.String())
}
