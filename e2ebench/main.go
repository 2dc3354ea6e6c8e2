// Command e2ebench is the repository's end-to-end benchmark: it runs one
// named workload against the serving stack in this process — the same
// server.NewPool / server.NewHandler / server.NewLB objects the daemons
// mount, with the daemons' default options — checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, from a measured
// run with tracing off; with -trace 1 they are the per-layer ones,
// counts from the measured run and times from a second, traced run.
// See README.md for the workloads, the metric catalogue and how to
// reproduce the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netupdate/internal/obs"
)

// heldOutSeed is kept out of tuning: a claimed gain is confirmed on it.
const heldOutSeed = 7919

// setupRuns is how many times a run sets its stack up; setup_s is the
// median.
const setupRuns = 5

// warmupShare sets the untimed warm-up that precedes each timed phase
// on its fresh stack to 1/warmupShare of the measured run: lazily built
// structures and first cache misses fall outside the timing. The traced
// run's warm-up is just as long, so both timed phases start at the same
// stack age; a stack's rate drifts with age as its plan caches fill.
const warmupShare = 10

// exportRequests bounds the requests written to a workload's Chrome
// trace; the metrics use every traced request.
const exportRequests = 200

// metric is one catalogue entry.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metric{
	{"syn_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"cpu_ms_per_syn", "ms", "lower"},
	{"dag_depth_mean", "steps", "lower"},
}

var perLayer = []metric{
	{"client.transport_ms", "ms", "lower"},
	{"lb.self_ms", "ms", "lower"},
	{"http.self_ms", "ms", "lower"},
	{"http.result_bytes", "bytes", "lower"},
	{"pool.queue_wait_ms", "ms", "lower"},
	{"pool.overhead_ms", "ms", "lower"},
	{"pool.restores_per_syn", "count", "lower"},
	{"pool.restore_ms", "ms", "lower"},
	{"pool.evictions_per_syn", "count", "lower"},
	{"pool.cold_rebuilds", "count", "lower"},
	{"pool.warm_over_budget", "count", "lower"},
	{"cache.hit_frac", "frac", "higher"},
	{"cache.verify_ms", "ms", "lower"},
	{"cache.verify_failures", "count", "lower"},
	{"session.elapsed_ms", "ms", "lower"},
	{"session.self_ms", "ms", "lower"},
	{"engine.rebind_ms", "ms", "lower"},
	{"engine.final_verify_ms", "ms", "lower"},
	{"engine.decompose_ms", "ms", "lower"},
	{"engine.search_ms", "ms", "lower"},
	{"engine.wait_removal_ms", "ms", "lower"},
	{"engine.dag_build_ms", "ms", "lower"},
	{"engine.units_mean", "count", "lower"},
	{"engine.components_mean", "count", "higher"},
	{"engine.checks_per_syn", "count", "lower"},
	{"engine.backtracks_per_syn", "count", "lower"},
	{"mc.states_labeled_per_syn", "count", "lower"},
	{"sat.calls_per_syn", "count", "lower"},
	{"runtime.allocs_per_syn", "count", "lower"},
	{"runtime.alloc_kb_per_syn", "KB", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance says where and on what a result was measured.
type provenance struct {
	Workload    shape   `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"heldOutSeed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Clients     int     `json:"clients"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"goVersion"`
	// Checked is how many plans the output check replayed: the seeded
	// sample of about one in Workload.CheckEvery answered requests.
	Checked    int    `json:"checked"`
	Setups     int    `json:"setups"`
	ChromePath string `json:"chromeTrace,omitempty"`
	FirstError string `json:"firstError,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: rolling, flapping, regions, churn, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an added traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced runs' Chrome traces")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0.1 {
		flag.Usage()
		os.Exit(2)
	}

	var shapes []shape
	if *name == "all" {
		shapes = workloads
	} else if sh, ok := workloadByName(*name); ok {
		shapes = []shape{sh}
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	total := result{Correct: true, Metrics: map[string]value{}}
	for _, sh := range shapes {
		res, prov, err := runWorkload(sh, *seed, *seconds, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", sh.Name, err)
			os.Exit(1)
		}
		if prov.FirstError != "" {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: first failure: %s\n", sh.Name, prov.FirstError)
		}
		printTable(sh.Name, res)
		pj, _ := json.Marshal(map[string]any{"provenance": prov})
		fmt.Println(string(pj))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(shapes) > 1 {
				k = sh.Name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printTable(workload string, res *result) {
	for _, m := range append(endToEnd, perLayer...) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("%-9s %-28s %14.4f %s\n", workload, m.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("%-9s %-28s %14.4f %s (%d of %d attempted)\n", workload, "fail_frac",
		float64(res.Failed)/float64(res.Attempted), "frac", res.Failed, res.Attempted)
}

// runWorkload makes the inputs, sets the stack up, runs and checks the
// measured run, and with traced set adds the traced run.
func runWorkload(sh shape, seed int64, seconds float64, traced bool, traceDir string) (*result, *provenance, error) {
	prov := &provenance{
		Workload: sh, Seed: seed, HeldOutSeed: heldOutSeed, Seconds: seconds, Traced: traced, Clients: clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	clock := time.Now()
	lap := func(what string) {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %s %.2fs\n", sh.Name, what, time.Since(clock).Seconds())
		clock = time.Now()
	}
	inputs, err := makeInputs(sh, seed, seconds)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	baseHeap := liveHeap()
	lap("inputs")

	// setup_s is the median of several set-ups; the last stack serves the
	// measured run. The traced mode reports no setup time and sets up once.
	setups := setupRuns
	if traced {
		setups = 1
	}
	var setupS []float64
	var s *stack
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = newStack(sh, inputs, nil); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	prov.Setups = setups
	lap("setup")

	runtime.GC()
	dur := time.Duration(seconds * float64(time.Second))
	warm := runPhase(s, inputs, make([]tenantLog, len(inputs)), dur/warmupShare, seed, false, 0)
	before := s.poolTotals()
	ph := runPhase(s, inputs, warm.tenants, dur, seed, false, sh.MaxChecks)
	after := s.poolTotals()
	overBudget := s.warmOverBudget()
	heapMB := float64(liveHeap()-baseHeap) / (1 << 20)
	s.close()
	lap("measured run")

	attempted, failed := ph.attempted()
	wAttempted, wFailed := warm.attempted()
	prov.FirstError = warm.firstErr()
	if prov.FirstError == "" {
		prov.FirstError = ph.firstErr()
	}
	checked, errs := checkAll(inputs, ph, seed, clients)
	prov.Checked = checked
	failed += len(errs)
	if len(errs) > 0 && prov.FirstError == "" {
		prov.FirstError = "output check: " + errs[0].Error()
	}

	lap("output check")

	m := map[string]float64{}
	syn := float64(attempted)
	if !traced {
		var lat []float64
		for _, c := range ph.clients {
			lat = append(lat, c.lat...)
		}
		sort.Float64s(lat)
		m["syn_per_s"], m["latency_p50_ms"], m["cpu_ms_per_syn"] = ph.windowed()
		m["latency_p99_ms"] = quantile(lat, 0.99)
		m["ok_frac"] = 1 - float64(failed)/syn
		m["setup_s"] = median(setupS)
		m["heap_live_mb"] = heapMB
		m["dag_depth_mean"] = ratio(ph.sum(func(c *clientLog) int { return c.depth }), ph.sum(func(c *clientLog) int { return c.plans }))
	} else {
		plans := ph.sum(func(c *clientLog) int { return c.plans })
		perPlan := func(f func(c *clientLog) int) float64 { return ratio(ph.sum(f), plans) }
		m["http.result_bytes"] = ratio(ph.sum(func(c *clientLog) int { return c.bytes }), ph.sum(func(c *clientLog) int { return c.answers }))
		m["pool.restores_per_syn"] = float64(after.SnapshotRestores-before.SnapshotRestores) / syn
		m["pool.evictions_per_syn"] = float64(after.Evictions-before.Evictions) / syn
		m["pool.cold_rebuilds"] = float64(after.ColdRebuilds - before.ColdRebuilds)
		m["pool.warm_over_budget"] = float64(overBudget)
		hits := after.PlanCacheHits - before.PlanCacheHits
		m["cache.hit_frac"] = ratio(int(hits), int(hits+after.PlanCacheMisses-before.PlanCacheMisses))
		m["cache.verify_failures"] = float64(after.PlanCacheVerifyFailures - before.PlanCacheVerifyFailures)
		m["engine.units_mean"] = perPlan(func(c *clientLog) int { return c.units })
		m["engine.components_mean"] = perPlan(func(c *clientLog) int { return c.comps })
		m["engine.checks_per_syn"] = perPlan(func(c *clientLog) int { return c.checks })
		m["engine.backtracks_per_syn"] = perPlan(func(c *clientLog) int { return c.backtracks })
		m["mc.states_labeled_per_syn"] = perPlan(func(c *clientLog) int { return c.statesLabeled })
		m["sat.calls_per_syn"] = perPlan(func(c *clientLog) int { return c.satCalls })
		m["runtime.allocs_per_syn"] = float64(ph.res.mallocs) / syn
		m["runtime.alloc_kb_per_syn"] = float64(ph.res.allocBytes) / 1024 / syn
		m["runtime.gc_cpu_frac"] = ratio64(ph.res.gcCPU, ph.res.useCPU)

		tm, tAttempted, tFailed, path, err := tracedRun(sh, inputs, dur, seed, traceDir, ph)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range tm {
			m[k] = v
		}
		attempted += tAttempted
		failed += tFailed
		prov.ChromePath = path
		lap("traced run")
	}

	attempted += wAttempted
	failed += wFailed
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	catalogue := endToEnd
	if traced {
		catalogue = perLayer
	}
	for _, c := range catalogue {
		v, ok := m[c.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s not measured", c.Name)
		}
		res.Metrics[c.Name] = value{v, c.Unit}
	}
	return res, prov, nil
}

// tracedRun sets up a fresh stack with the benchmark-side spans on,
// runs a third of the measured length with per-request engine tracing,
// joins the spans, writes the Chrome trace and returns the per-layer
// times.
func tracedRun(sh shape, inputs []tenantInput, dur time.Duration, seed int64, traceDir string, measured *phase) (map[string]float64, int, int, string, error) {
	rec := newRecorder()
	s, err := newStack(sh, inputs, rec)
	if err != nil {
		return nil, 0, 0, "", fmt.Errorf("traced setup: %w", err)
	}
	runtime.GC()
	tdur := dur / 3
	warm := runPhase(s, inputs, make([]tenantLog, len(inputs)), dur/warmupShare, seed, false, 0)
	before := s.poolTotals()
	restoreSum0, restoreCount0 := s.restoreSeconds()
	ph := runPhase(s, inputs, warm.tenants, tdur, seed, true, 0)
	after := s.poolTotals()
	restoreSum, restoreCount := s.restoreSeconds()
	s.close()

	attempted, failed := ph.attempted()
	tracedRate := float64(attempted) / ph.elapsed.Seconds()
	wAttempted, wFailed := warm.attempted()
	attempted += wAttempted
	failed += wFailed
	queueWait := ratio64(after.QueueWaitMSTotal-before.QueueWaitMSTotal, float64(after.Requests-before.Requests))
	var reqs []tracedReq
	for _, c := range ph.clients {
		reqs = append(reqs, c.traced...)
	}
	att := attribute(rec.tr.Snapshot(), reqs, sh.Replicas > 0, queueWait, exportRequests)
	m := att.metrics
	m["pool.restore_ms"] = ratio64((restoreSum-restoreSum0)*1e3, restoreCount-restoreCount0)
	untraced := float64(measured.completedBy(tdur))
	m["trace.overhead_frac"] = 1 - ratio64(tracedRate, untraced/tdur.Seconds())

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, 0, 0, "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", sh.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, 0, "", err
	}
	werr := obs.WriteChrome(f, att.joined)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, 0, 0, "", fmt.Errorf("chrome trace: %w", werr)
	}
	if att.dropped > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d benchmark-side spans dropped\n", sh.Name, att.dropped)
	}
	return m, attempted, failed, path, nil
}

func (ph *phase) sum(f func(c *clientLog) int) int {
	n := 0
	for i := range ph.clients {
		n += f(&ph.clients[i])
	}
	return n
}

func ratio(a, b int) float64 { return ratio64(float64(a), float64(b)) }

func ratio64(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
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

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
