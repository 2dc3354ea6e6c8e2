package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"netupdate/internal/config"
	"netupdate/internal/server"
)

// tinyWorkloads are the four workloads at smoke-test size.
var tinyWorkloads = []shape{
	{Name: "rolling", Kind: "rolling", Tenants: 2, Switches: 40, Replicas: 2,
		StepsPerSecond: 400, CheckEvery: 2, MaxChecks: 8},
	{Name: "flapping", Kind: "flapping", Tenants: 2, Switches: 40, Replicas: 2,
		StepsPerSecond: 400, CheckEvery: 2, MaxChecks: 8},
	{Name: "regions", Kind: "regions", Tenants: 2, Switches: 160, Regions: 3, PairsPerRegion: 2,
		StepsPerSecond: 400, CheckEvery: 2, MaxChecks: 4},
	{Name: "churn", Kind: "rolling", Tenants: 4, Switches: 40, MaxSessions: 2,
		StepsPerSecond: 400, CheckEvery: 2, MaxChecks: 8},
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	encode := func(in []tenantInput) []byte {
		type tenant struct {
			Spec       *server.TenantSpec
			Deltas     []config.StreamDelta
			Impossible bool
		}
		var ts []tenant
		for _, ti := range in {
			ts = append(ts, tenant{ti.spec, ti.deltas, ti.impossible})
		}
		b, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, sh := range tinyWorkloads {
		a, err := makeInputs(sh, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		b, err := makeInputs(sh, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		c, err := makeInputs(sh, 6, 1)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		if string(encode(a)) != string(encode(b)) {
			t.Errorf("%s: the same seed gave different inputs", sh.Name)
		}
		if string(encode(a)) == string(encode(c)) {
			t.Errorf("%s: seeds 5 and 6 gave identical inputs", sh.Name)
		}
	}
}

func TestMetricCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(endToEnd, perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}

	// BENCHMARK.json lists the same catalogue and workloads.
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's catalogue")
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, sh := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			res, prov, err := runWorkload(sh, 3, 0.3, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sh.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v (%s)", sh.Name, traced, res, prov.FirstError)
			}
			if prov.Checked == 0 {
				t.Errorf("%s traced=%v: no plan was checked", sh.Name, traced)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sh.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(prov.ChromePath); err != nil {
				t.Errorf("%s: Chrome trace: %v", sh.Name, err)
			}
			if res.Metrics["session.elapsed_ms"].Value <= 0 {
				t.Errorf("%s: no engine span tree was joined", sh.Name)
			}
			for _, m := range []string{"client.transport_ms", "lb.self_ms", "http.self_ms"} {
				v := res.Metrics[m].Value
				if sh.Replicas == 0 && m != "client.transport_ms" && v != 0 {
					t.Errorf("%s: %s = %v on a direct workload", sh.Name, m, v)
				}
				if sh.Replicas > 0 && v <= 0 {
					t.Errorf("%s: %s = %v through the LB", sh.Name, m, v)
				}
			}
		}
	}
}

// twoCorridor is an 8-switch scenario whose one class moves from the
// upper corridor to the lower: the ingress switch 0 must update after
// the lower corridor is in place.
var twoCorridor = server.TenantSpec{StreamHeader: config.StreamHeader{
	Name: "two-corridor",
	Topology: config.TopologyFile{
		Switches: 8,
		Links:    [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 7}, {0, 4}, {4, 5}, {5, 6}, {6, 7}},
		Hosts:    []config.HostFile{{ID: 100, Switch: 0}, {ID: 101, Switch: 7}},
	},
	Classes: []config.StreamClass{{
		Name: "c", Src: 100, Dst: 101, Path: []int{0, 1, 2, 3, 7}, Spec: "sw=0 -> F sw=7",
	}},
}}

func TestCheckRejectsSwappedDependentSteps(t *testing.T) {
	p := server.NewPool(server.PoolOptions{})
	defer p.Close(context.Background())
	info, err := p.Register(&twoCorridor)
	if err != nil {
		t.Fatal(err)
	}
	delta := config.StreamDelta{Reroute: []config.Reroute{{Class: "c", Path: []int{0, 4, 5, 6, 7}}}}
	plan, err := p.Synthesize(context.Background(), info.ID, &delta)
	if err != nil {
		t.Fatal(err)
	}
	var switches []int
	for _, st := range plan.Updates() {
		switches = append(switches, st.Switch)
	}
	base, err := twoCorridor.StreamHeader.Build()
	if err != nil {
		t.Fatal(err)
	}
	target, err := base.Apply(base.Init, &delta)
	if err != nil {
		t.Fatal(err)
	}

	order, err := linearize(plan.DAG.Preds, len(switches), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOrder(base, base.Init, target, switches, order); err != nil {
		t.Fatalf("the engine's plan %v fails the check: %v", switches, err)
	}

	// Swap the ingress update with the step it depends on.
	ingress := -1
	for i, sw := range switches {
		if sw == 0 {
			ingress = i
		}
	}
	preds := plan.DAG.Preds[ingress]
	if len(preds) == 0 {
		t.Fatalf("the ingress update depends on nothing in %v", plan.DAG.Preds)
	}
	dep := preds[len(preds)-1]
	swapped := make([]int, len(switches))
	for i := range swapped {
		swapped[i] = i
	}
	swapped[ingress], swapped[dep] = dep, ingress
	if err := checkOrder(base, base.Init, target, switches, swapped); err == nil {
		t.Fatalf("the check accepted order %v of plan %v with steps %d and %d swapped", swapped, switches, dep, ingress)
	}

	// A plan that skips a changed switch ends away from the target.
	if err := checkOrder(base, base.Init, target, switches[:len(switches)-1], order[:0]); err == nil {
		t.Fatal("the check accepted a plan that leaves the target unreached")
	}
}
