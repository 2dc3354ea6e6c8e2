package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/obs"
	"netupdate/internal/server"
)

// daemonTimeout is netupdated's default -timeout.
const daemonTimeout = 30 * time.Second

// stack is one serving stack in this process: pools, and for LB
// workloads a daemon handler per pool plus the LB, all on loopback.
type stack struct {
	sh      shape
	pools   []*server.Pool
	servers []*httptest.Server // replicas, then the LB front
	front   string
	client  *http.Client
	ids     []string // tenant ids, in input order
	rec     *recorder
}

// newStack starts a stack and registers every tenant, which builds and
// verifies each tenant's session. rec, when non-nil, wraps the handlers
// and pool calls in benchmark-side spans (the traced run).
func newStack(sh shape, inputs []tenantInput, rec *recorder) (*stack, error) {
	s := &stack{sh: sh, rec: rec}
	opts := server.PoolOptions{MaxSessions: sh.MaxSessions, DefaultTimeout: daemonTimeout}
	if sh.Replicas == 0 {
		s.pools = []*server.Pool{server.NewPool(opts)}
		for _, in := range inputs {
			info, err := s.pools[0].Register(in.spec)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("register %s: %w", in.spec.Name, err)
			}
			s.ids = append(s.ids, info.ID)
		}
		return s, nil
	}

	var urls []string
	for i := 0; i < sh.Replicas; i++ {
		p := server.NewPool(opts)
		s.pools = append(s.pools, p)
		srv := httptest.NewServer(rec.wrapDaemon(server.NewHandler(p)))
		s.servers = append(s.servers, srv)
		urls = append(urls, srv.URL)
	}
	lb, err := server.NewLB(urls, 0)
	if err != nil {
		s.close()
		return nil, err
	}
	front := httptest.NewServer(rec.wrapLB(lb.Handler()))
	s.servers = append(s.servers, front)
	s.front = front.URL
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
	for _, in := range inputs {
		body, err := json.Marshal(in.spec)
		if err != nil {
			s.close()
			return nil, err
		}
		resp, err := s.client.Post(s.front+"/v1/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", in.spec.Name, err)
		}
		var info server.TenantInfo
		derr := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if resp.StatusCode >= 300 || derr != nil || info.ID == "" {
			s.close()
			return nil, fmt.Errorf("register %s: status %d: %v", in.spec.Name, resp.StatusCode, derr)
		}
		s.ids = append(s.ids, info.ID)
	}
	return s, nil
}

func (s *stack) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	defer cancel()
	for _, p := range s.pools {
		_ = p.Close(ctx) // every client has returned: nothing is in flight
	}
}

// poolTotals sums the pools' counters.
func (s *stack) poolTotals() server.PoolStats {
	var t server.PoolStats
	for _, p := range s.pools {
		st := p.Stats()
		t.Requests += st.Requests
		t.Evictions += st.Evictions
		t.SnapshotRestores += st.SnapshotRestores
		t.ColdRebuilds += st.ColdRebuilds
		t.QueueWaitMSTotal += st.QueueWaitMSTotal
		t.PlanCacheHits += st.PlanCacheHits
		t.PlanCacheMisses += st.PlanCacheMisses
		t.PlanCacheVerifyFailures += st.PlanCacheVerifyFailures
	}
	return t
}

// warmOverBudget is how far the pools' warm sessions exceed the
// configured budget, summed over replicas.
func (s *stack) warmOverBudget() int {
	budget := s.sh.MaxSessions
	if budget == 0 {
		budget = server.DefaultMaxSessions
	}
	over := 0
	for _, p := range s.pools {
		if w := p.Stats().WarmSessions; w > budget {
			over += w - budget
		}
	}
	return over
}

// restoreSeconds reads the pools' snapshot-restore histogram from their
// Prometheus exposition: total seconds and count.
func (s *stack) restoreSeconds() (sum, count float64) {
	for _, p := range s.pools {
		var buf bytes.Buffer
		p.Metrics().WritePrometheus(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			var v float64
			if _, err := fmt.Sscanf(line, "netupdate_snapshot_restore_seconds_sum %g", &v); err == nil {
				sum += v
			} else if _, err := fmt.Sscanf(line, "netupdate_snapshot_restore_seconds_count %g", &v); err == nil {
				count += v
			}
		}
	}
	return sum, count
}

// answer is one request's outcome as the client sees it.
type answer struct {
	verdict string // "plan", "impossible" or "error"
	err     string
	// switches lists each update step's switch in plan order; badStep
	// marks a step that is not a switch-granularity update.
	switches []int
	badStep  bool
	preds    [][]int
	depth    int
	units    int
	comps    int
	checks   int
	// Engine counters the wire does not carry; direct workloads only.
	backtracks, statesLabeled, satCalls int
	bytes                               int
	reqID                               string
	trace                               *obs.TraceData
}

// send issues one delta for tenant idx and waits for its answer.
func (s *stack) send(ctx context.Context, idx int, d *config.StreamDelta, traced bool) answer {
	if s.front == "" {
		return s.sendDirect(ctx, idx, d, traced)
	}
	return s.sendHTTP(ctx, idx, d, traced)
}

func (s *stack) sendDirect(ctx context.Context, idx int, d *config.StreamDelta, traced bool) answer {
	id := obs.NewRequestID()
	ctx = obs.WithRequestID(ctx, id)
	if traced {
		ctx = obs.WithTracing(ctx)
	}
	start := s.rec.now()
	plan, err := s.pools[0].Synthesize(ctx, s.ids[idx], d)
	s.rec.span("pool", start, s.rec.now(), id)
	a := answer{reqID: id}
	switch {
	case err == nil:
		a.verdict = "plan"
		for _, st := range plan.Steps {
			if st.Wait {
				continue
			}
			a.switches = append(a.switches, st.Switch)
			a.badStep = a.badStep || st.IsRule
		}
		if plan.DAG != nil {
			a.preds, a.depth = plan.DAG.Preds, plan.DAG.Depth
		}
		st := &plan.Stats
		a.units, a.comps, a.checks = st.Units, st.Components, st.Checks
		a.backtracks, a.statesLabeled, a.satCalls = st.Backtracks, st.StatesLabeled, st.SATCalls
		a.trace = plan.Trace
	case errors.Is(err, core.ErrNoOrdering):
		a.verdict = "impossible"
	default:
		a.verdict, a.err = "error", err.Error()
	}
	return a
}

func (s *stack) sendHTTP(ctx context.Context, idx int, d *config.StreamDelta, traced bool) answer {
	body, err := json.Marshal(d)
	if err != nil {
		return answer{verdict: "error", err: err.Error()}
	}
	url := s.front + "/v1/tenants/" + s.ids[idx] + "/synthesize"
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(append(body, '\n')))
	if err != nil {
		return answer{verdict: "error", err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := s.client.Do(req)
	if err != nil {
		return answer{verdict: "error", err: err.Error()}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{reqID: resp.Header.Get(obs.RequestIDHeader), bytes: len(raw)}
	if err != nil || resp.StatusCode != http.StatusOK {
		a.verdict, a.err = "error", fmt.Sprintf("status %d: %v: %s", resp.StatusCode, err, bytes.TrimSpace(raw))
		return a
	}
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		a.verdict, a.err = "error", fmt.Sprintf("result line: %v", err)
		return a
	}
	a.verdict, a.err = res.Result, res.Error
	for _, st := range res.Steps {
		switch {
		case st.Op == "wait":
		case st.Op == "update" && st.Switch != nil:
			a.switches = append(a.switches, *st.Switch)
		default:
			a.badStep = true
		}
	}
	if res.DAG != nil {
		a.preds, a.depth = res.DAG.Preds, res.DAG.Depth
	}
	if st := res.Stats; st != nil {
		a.units, a.comps, a.checks = st.Units, st.Components, st.Checks
	}
	a.trace = res.Trace
	return a
}
