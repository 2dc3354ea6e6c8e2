package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"netupdate/internal/obs"
)

// recorder holds the benchmark-side spans of a traced run: one span per
// layer boundary the benchmark can wrap from outside (client call, LB
// handler, daemon handler, pool call), each tagged with the request id
// that later joins it to the engine's own span tree. A nil recorder
// records nothing and wraps nothing.
type recorder struct {
	t0 time.Time
	tr *obs.Trace
}

// recorderSpans bounds the spans one traced run can record; obs.Trace
// allocates its chunks lazily, so the bound costs nothing until used.
const recorderSpans = 1 << 20

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), tr: obs.NewTrace(recorderSpans)}
}

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

func (r *recorder) span(name string, start, end time.Duration, reqID string) {
	if r == nil {
		return
	}
	r.tr.RecordAt(name, 0, 0, start, end, reqID)
}

func isSynthesize(req *http.Request) bool {
	return req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/synthesize")
}

// wrapLB times the LB handler. The LB mints the request id on its way
// to the replica; the replica echoes it, and the proxy copies it onto
// the LB's response headers, where the wrapper reads it.
func (r *recorder) wrapLB(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		if isSynthesize(req) {
			r.span("lb", start, r.now(), w.Header().Get(obs.RequestIDHeader))
		}
	})
}

// wrapDaemon times the daemon handler, and inside it the pool call: the
// handler decodes the delta from the request body, calls the pool, and
// encodes the result before its first write, so the span from the last
// body read to the first response write encloses Pool.Synthesize (and
// the result's encoding, which cannot be told apart from outside).
func (r *recorder) wrapDaemon(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !isSynthesize(req) {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		id := req.Header.Get(obs.RequestIDHeader)
		body := &timedBody{ReadCloser: req.Body, r: r}
		req.Body = body
		tw := &timedWriter{ResponseWriter: w, r: r}
		h.ServeHTTP(tw, req)
		r.span("http", start, r.now(), id)
		if tw.first > 0 && body.last > 0 {
			r.span("pool", body.last, tw.first, id)
		}
	})
}

type timedBody struct {
	io.ReadCloser
	r    *recorder
	last time.Duration // when the last read returned data
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		b.last = b.r.now()
	}
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	r     *recorder
	first time.Duration // when the first body write started
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if w.first == 0 {
		w.first = w.r.now()
	}
	return w.ResponseWriter.Write(p)
}

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the server's writer (the
// daemon enables full duplex through it).
func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedReq is what a client keeps of one traced request.
type tracedReq struct {
	client int
	reqID  string
	engine *obs.TraceData
}

// engineSpans are the session's phase spans (children of its
// "synthesize" root) that have a per-layer metric of their own.
var engineSpans = map[string]string{
	"final-verify": "engine.final_verify_ms",
	"decompose":    "engine.decompose_ms",
	"search":       "engine.search_ms",
	"wait-removal": "engine.wait_removal_ms",
	"dag-build":    "engine.dag_build_ms",
	"rebind":       "engine.rebind_ms",
	"cache-verify": "cache.verify_ms",
}

type benchSpans struct{ client, lb, http, pool *obs.SpanData }

// attribution joins the benchmark-side spans to each request's engine
// span tree by request id and computes every layer's mean self time per
// request. Each layer's self time is its span minus the child layer
// span inside it; queueWaitMS is the pool's own mean queue wait, which
// is charged to pool.queue_wait_ms and taken out of the pool's self time.
type attribution struct {
	metrics map[string]float64
	joined  *obs.TraceData // the first exported requests, one tree each
	dropped int
}

func attribute(bench *obs.TraceData, reqs []tracedReq, viaLB bool, queueWaitMS float64, export int) attribution {
	by := map[string]*benchSpans{}
	for i := range bench.Spans {
		sp := &bench.Spans[i]
		b := by[sp.Detail]
		if b == nil {
			b = &benchSpans{}
			by[sp.Detail] = b
		}
		switch sp.Name {
		case "client":
			b.client = sp
		case "lb":
			b.lb = sp
		case "http":
			b.http = sp
		case "pool":
			b.pool = sp
		}
	}

	m := map[string]float64{}
	var nLB, nHTTP, nPool, nJoined int
	var clientTotal, unattributed float64
	for _, rq := range reqs {
		b := by[rq.reqID]
		if b == nil || b.client == nil {
			continue
		}
		client := b.client.DurUS / 1e3
		clientTotal += client
		inner := b.pool
		if viaLB {
			inner = b.lb
		}
		if inner != nil {
			m["client.transport_ms"] += client - inner.DurUS/1e3
		}
		if viaLB && b.lb != nil && b.http != nil {
			m["lb.self_ms"] += (b.lb.DurUS - b.http.DurUS) / 1e3
			nLB++
		}
		if viaLB && b.http != nil && b.pool != nil {
			m["http.self_ms"] += (b.http.DurUS - b.pool.DurUS) / 1e3
			nHTTP++
		}
		if inner != nil {
			nPool++
		}
		root := engineRoot(rq.engine)
		if root == nil || b.pool == nil {
			// No engine tree: infeasible answers carry none. Everything
			// inside the pool call beyond its queue wait is unattributed.
			if b.pool != nil {
				unattributed += b.pool.DurUS/1e3 - queueWaitMS
			}
			continue
		}
		nJoined++
		rootMS := root.DurUS / 1e3
		m["pool.overhead_ms"] += b.pool.DurUS/1e3 - rootMS - queueWaitMS
		m["session.elapsed_ms"] += rootMS
		named, covered := 0.0, 0.0
		for i := range rq.engine.Spans {
			sp := &rq.engine.Spans[i]
			if sp.Parent != root.ID {
				continue
			}
			covered += sp.DurUS / 1e3
			if name, ok := engineSpans[sp.Name]; ok {
				m[name] += sp.DurUS / 1e3
				named += sp.DurUS / 1e3
			}
		}
		m["session.self_ms"] += rootMS - named
		unattributed += rootMS - covered
	}
	mean := func(name string, n int) {
		if n > 0 {
			m[name] /= float64(n)
		} else {
			m[name] = 0
		}
	}
	mean("client.transport_ms", nPool)
	mean("lb.self_ms", nLB)
	mean("http.self_ms", nHTTP)
	for _, name := range []string{"pool.overhead_ms", "session.elapsed_ms", "session.self_ms"} {
		mean(name, nJoined)
	}
	for _, name := range engineSpans {
		mean(name, nJoined)
	}
	m["pool.queue_wait_ms"] = queueWaitMS
	if clientTotal > 0 {
		m["trace.unattributed_frac"] = unattributed / clientTotal
	}
	return attribution{metrics: m, joined: joinTrees(by, reqs, viaLB, export), dropped: bench.Dropped}
}

func engineRoot(d *obs.TraceData) *obs.SpanData {
	if d == nil {
		return nil
	}
	if i := d.Root(); i >= 0 && d.Spans[i].Name == "synthesize" {
		return &d.Spans[i]
	}
	return nil
}

// lanesPerClient spaces the clients' Chrome lanes so each client's
// engine component lanes stay under it.
const lanesPerClient = 64

// joinTrees builds one span tree per request for the first `export`
// requests: client → lb → http → pool → the engine's synthesize tree.
// Engine spans carry times relative to their own trace; the engine root
// is placed to end where the pool span ends (the pool returns right
// after the session does).
func joinTrees(by map[string]*benchSpans, reqs []tracedReq, viaLB bool, export int) *obs.TraceData {
	var order []int
	for i, rq := range reqs {
		if b := by[rq.reqID]; b != nil && b.client != nil {
			order = append(order, i)
		}
	}
	start := func(i int) float64 { return by[reqs[i].reqID].client.StartUS }
	sort.Slice(order, func(a, b int) bool { return start(order[a]) < start(order[b]) })
	if len(order) > export {
		order = order[:export]
	}
	tr := obs.NewTrace(export * 48)
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	for _, i := range order {
		rq := reqs[i]
		lane := rq.client * lanesPerClient
		b := by[rq.reqID]
		parent := 0
		chain := []*obs.SpanData{b.client, b.pool}
		if viaLB {
			chain = []*obs.SpanData{b.client, b.lb, b.http, b.pool}
		}
		for _, sp := range chain {
			if sp == nil {
				break
			}
			parent = tr.RecordAt(sp.Name, parent, lane, us(sp.StartUS), us(sp.StartUS+sp.DurUS), rq.reqID)
		}
		root := engineRoot(rq.engine)
		if root == nil || b.pool == nil {
			continue
		}
		shift := b.pool.StartUS + b.pool.DurUS - root.DurUS - root.StartUS
		ids := map[int]int{0: parent}
		for j := range rq.engine.Spans {
			sp := &rq.engine.Spans[j]
			p, ok := ids[sp.Parent]
			if !ok {
				continue // parents precede children in span order
			}
			ids[sp.ID] = tr.RecordAt(sp.Name, p, lane+sp.Lane,
				us(sp.StartUS+shift), us(sp.StartUS+shift+sp.DurUS), sp.Detail)
		}
	}
	return tr.Snapshot()
}
