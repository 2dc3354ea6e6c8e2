package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one answered request retained for the output check.
type sample struct {
	seq int // the tenant's request ordinal
	ans answer
}

// tenantLog is what the clients record per tenant: which requests the
// server answered with a plan (so the check can rebuild the exact
// configuration each request started from) and the sampled answers.
type tenantLog struct {
	advanced []bool
	samples  []sample
}

// clientLog is one client's view of a run.
type clientLog struct {
	lat       []float64 // ms, per request
	ends      []time.Duration
	attempted int
	failed    int
	firstErr  string

	plans                               int
	depth, units, comps, checks         int
	backtracks, statesLabeled, satCalls int
	answers, bytes                      int
	traced                              []tracedReq
}

// phase is one closed-loop run over a started stack.
type phase struct {
	elapsed time.Duration
	clients []clientLog
	tenants []tenantLog
	res     resources
	// window is the length of each of the run's `windows` windows, and
	// cpuAt the process CPU time at each window boundary.
	window time.Duration
	cpuAt  []time.Duration
}

// windows is how many equal windows a run is cut into. Throughput,
// median latency and CPU per synthesis are medians over the windows, so
// a burst of noise from other tenants of the host moves only the
// windows it hits.
const windows = 10

// sampled decides, from the seed alone, whether a tenant's seq-th
// request is kept for the output check.
func sampled(seed int64, tenant, seq, every int) bool {
	x := uint64(seed) ^ uint64(tenant)<<40 ^ uint64(seq)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(every) == 0
}

// runPhase drives the stack closed-loop for dur: each client owns a
// contiguous block of tenants, sends one delta per request, and cycles
// through its tenants round-robin, so each tenant's deltas arrive in
// stream order. Clients finish the request in flight when time is up.
// tenants carries each tenant's log over from an earlier phase; at most
// maxChecks answers are kept for the output check.
func runPhase(s *stack, inputs []tenantInput, tenants []tenantLog, dur time.Duration, seed int64, traced bool, maxChecks int) *phase {
	sh := s.sh
	ph := &phase{
		clients: make([]clientLog, clients),
		tenants: tenants,
	}
	ctx := context.Background()
	before := readResources()
	start := time.Now()
	deadline := start.Add(dur)
	ph.window = dur / windows
	ph.cpuAt = append(ph.cpuAt, processCPU())
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(ph.window)
		defer tick.Stop()
		for len(ph.cpuAt) <= windows {
			<-tick.C
			ph.cpuAt = append(ph.cpuAt, processCPU())
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lo, hi := c*len(inputs)/clients, (c+1)*len(inputs)/clients
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			cl := &ph.clients[c]
			maxSamples := maxChecks / clients
			kept := 0
			for j := 0; time.Now().Before(deadline); j++ {
				t := lo + j%(hi-lo)
				in := &inputs[t]
				tl := &ph.tenants[t]
				seq := len(tl.advanced)
				t0 := time.Now()
				bt0 := s.rec.now()
				a := s.send(ctx, t, &in.deltas[seq%len(in.deltas)], traced)
				s.rec.span("client", bt0, s.rec.now(), a.reqID)
				lat := time.Since(t0)
				cl.lat = append(cl.lat, float64(lat)/1e6)
				cl.ends = append(cl.ends, time.Since(start))
				cl.attempted++
				want := "plan"
				if in.impossible {
					want = "impossible"
				}
				ok := a.verdict == want && !a.badStep
				if !ok {
					cl.failed++
					if cl.firstErr == "" {
						cl.firstErr = "tenant " + in.spec.Name + ": answered " + a.verdict + " (want " + want + ") " + a.err
					}
				}
				tl.advanced = append(tl.advanced, a.verdict == "plan")
				if a.bytes > 0 {
					cl.answers++
					cl.bytes += a.bytes
				}
				if a.verdict == "plan" {
					cl.plans++
					cl.depth += a.depth
					cl.units += a.units
					cl.comps += a.comps
					cl.checks += a.checks
					cl.backtracks += a.backtracks
					cl.statesLabeled += a.statesLabeled
					cl.satCalls += a.satCalls
					if ok && !in.impossible && kept < maxSamples && sampled(seed, t, seq, sh.CheckEvery) {
						kept++
						sa := a
						sa.trace = nil
						tl.samples = append(tl.samples, sample{seq: seq, ans: sa})
					}
				}
				if traced {
					cl.traced = append(cl.traced, tracedReq{client: c, reqID: a.reqID, engine: a.trace})
				}
			}
		}(c, lo, hi)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	<-samplerDone
	ph.res = readResources().minus(before)
	return ph
}

// windowed returns the medians over the run's windows of throughput
// (1/s), median latency (ms) and CPU per synthesis (ms). A request
// belongs to the window it completed in; windows without a completion
// count as zero throughput and are skipped for the other two.
func (ph *phase) windowed() (rate, p50, cpuPerSyn float64) {
	lat := make([][]float64, windows)
	for _, c := range ph.clients {
		for i, e := range c.ends {
			if w := int(e / ph.window); w < windows {
				lat[w] = append(lat[w], c.lat[i])
			}
		}
	}
	var rates, p50s, cpus []float64
	for w, ls := range lat {
		rates = append(rates, float64(len(ls))/ph.window.Seconds())
		if len(ls) == 0 {
			continue
		}
		sort.Float64s(ls)
		p50s = append(p50s, quantile(ls, 0.5))
		cpus = append(cpus, float64(ph.cpuAt[w+1]-ph.cpuAt[w])/1e6/float64(len(ls)))
	}
	return median(rates), median(p50s), median(cpus)
}

func (ph *phase) attempted() (n, failed int) {
	for _, c := range ph.clients {
		n += c.attempted
		failed += c.failed
	}
	return n, failed
}

func (ph *phase) firstErr() string {
	for _, c := range ph.clients {
		if c.firstErr != "" {
			return c.firstErr
		}
	}
	return ""
}

// completedBy counts the requests that finished within d of the start.
func (ph *phase) completedBy(d time.Duration) int {
	n := 0
	for _, c := range ph.clients {
		for _, e := range c.ends {
			if e <= d {
				n++
			}
		}
	}
	return n
}

// resources is the process's allocation counters and the runtime's
// estimate of the CPU it used, in total and for GC.
type resources struct {
	mallocs       uint64
	allocBytes    uint64
	gcCPU, useCPU float64 // seconds
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readResources() resources {
	var r resources
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	r.gcCPU = val(0)
	r.useCPU = val(1) - val(2)
	return r
}

func (r resources) minus(o resources) resources {
	return resources{
		mallocs:    r.mallocs - o.mallocs,
		allocBytes: r.allocBytes - o.allocBytes,
		gcCPU:      r.gcCPU - o.gcCPU,
		useCPU:     r.useCPU - o.useCPU,
	}
}

// processCPU is the process's user plus system CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
