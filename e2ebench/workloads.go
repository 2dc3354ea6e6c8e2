package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"netupdate/internal/bench"
	"netupdate/internal/config"
	"netupdate/internal/server"
	"netupdate/internal/topology"
)

// shape is one workload's fixed parameters. Everything else a run uses —
// topologies, routes, delta streams, the checked sample — derives from
// the shape and the seed.
type shape struct {
	Name string `json:"name"`
	// Kind selects the input generator: "rolling" (MakeTenantLoads
	// random walks), "flapping" (MakeFlappingLoads flap/retry pairs) or
	// "regions" (multi-region scenarios with whole-region flips).
	Kind     string `json:"kind"`
	Tenants  int    `json:"tenants"`
	Switches int    `json:"switches"`
	// Regions and PairsPerRegion shape the multi-region scenarios.
	Regions        int `json:"regions,omitempty"`
	PairsPerRegion int `json:"pairsPerRegion,omitempty"`
	// Replicas > 0 sends traffic client → LB → that many daemon replicas
	// over loopback HTTP; 0 calls Pool.Synthesize directly.
	Replicas int `json:"replicas"`
	// MaxSessions is the pool's warm-session budget; 0 keeps the
	// daemon's default.
	MaxSessions int `json:"maxSessions,omitempty"`
	// StepsPerSecond sizes each tenant's delta stream: the stream holds
	// StepsPerSecond × run seconds deltas, several times what a tenant
	// is served, and wraps if a faster host exhausts it.
	StepsPerSecond int `json:"stepsPerSecond"`
	// CheckEvery and MaxChecks pick the seeded sample of answers the
	// output check replays: about one request in CheckEvery, at most
	// MaxChecks per run.
	CheckEvery int `json:"checkEvery"`
	MaxChecks  int `json:"maxChecks"`
}

// clients is the number of closed-loop clients, one per CPU of the
// 2-CPU host the shapes were sized on. Each owns a contiguous block of
// tenants and cycles through it round-robin.
const clients = 2

// workloads is the fixed table of named workloads (README.md says why
// each exists). Shapes were sized so each run on a 2-CPU host serves
// well over a thousand requests, putting at least ten samples beyond
// the p99.
var workloads = []shape{
	{Name: "rolling", Kind: "rolling", Tenants: 8, Switches: 240, Replicas: 2,
		StepsPerSecond: 600, CheckEvery: 16, MaxChecks: 200},
	{Name: "flapping", Kind: "flapping", Tenants: 8, Switches: 120, Replicas: 2,
		StepsPerSecond: 2000, CheckEvery: 64, MaxChecks: 200},
	{Name: "regions", Kind: "regions", Tenants: 2, Switches: 1200, Regions: 10, PairsPerRegion: 2,
		StepsPerSecond: 200, CheckEvery: 16, MaxChecks: 16},
	{Name: "churn", Kind: "rolling", Tenants: 24, Switches: 120, MaxSessions: 8,
		StepsPerSecond: 100, CheckEvery: 16, MaxChecks: 200},
}

func workloadByName(name string) (shape, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return shape{}, false
}

// tenantInput is one tenant's registration document and delta stream.
type tenantInput struct {
	spec   *server.TenantSpec
	deltas []config.StreamDelta
	// impossible marks retry tenants, whose every answer must be
	// "impossible"; every other tenant must be answered with a plan.
	impossible bool
}

// makeInputs generates the workload's tenants from the seed. The same
// shape, seed and run length always give byte-identical specs and
// streams.
func makeInputs(sh shape, seed int64, seconds float64) ([]tenantInput, error) {
	steps := int(float64(sh.StepsPerSecond)*seconds) + 16
	opts := server.OptionsSpec{} // the daemon's defaults
	var loads []*bench.TenantLoad
	var err error
	switch sh.Kind {
	case "rolling":
		loads, err = bench.MakeTenantLoads(sh.Tenants, sh.Switches, steps, opts, seed)
	case "flapping":
		loads, err = flappingLoads(sh, (steps+1)/2, opts, seed)
	case "regions":
		return makeRegionInputs(sh, seed, steps)
	default:
		return nil, fmt.Errorf("unknown workload kind %q", sh.Kind)
	}
	if err != nil {
		return nil, err
	}
	out := make([]tenantInput, len(loads))
	for i, tl := range loads {
		out[i] = tenantInput{spec: tl.Spec, deltas: tl.Deltas,
			impossible: sh.Kind == "flapping" && i%retryOneIn == 1}
	}
	return out, nil
}

// retryOneIn makes one flapping tenant in retryOneIn a retry tenant. A
// fleet with one retry tenant per flap tenant puts half the requests in
// each of two latency modes (memo answers and replayed plans), and its
// median then sits in the gap between them, where it jumps from run to
// run.
const retryOneIn = 4

// flipOneIn is the chance, one in flipOneIn, that a regions delta flips
// a given region. Flipping fewer regions per delta makes each request
// cheaper, so a run completes enough of them to steady the p99.
const flipOneIn = 4

// flappingLoads picks the flapping fleet from bench.MakeFlappingLoads,
// which alternates flap and retry tenants: tenant i is a retry tenant
// when i%retryOneIn == 1 and a flap tenant otherwise.
func flappingLoads(sh shape, cycles int, opts server.OptionsSpec, seed int64) ([]*bench.TenantLoad, error) {
	pool, err := bench.MakeFlappingLoads(2*sh.Tenants, sh.Switches, cycles, opts, seed)
	if err != nil {
		return nil, err
	}
	var flap, retry []*bench.TenantLoad
	for i, tl := range pool {
		if i%2 == 1 {
			retry = append(retry, tl)
		} else {
			flap = append(flap, tl)
		}
	}
	loads := make([]*bench.TenantLoad, sh.Tenants)
	for i := range loads {
		if i%retryOneIn == 1 {
			loads[i], retry = retry[0], retry[1:]
		} else {
			loads[i], flap = flap[0], flap[1:]
		}
	}
	return loads, nil
}

// makeRegionInputs builds the scale case: each tenant is a multi-region
// scenario with no cross classes, and each delta flips a random non-empty
// subset of whole regions between their initial and final routes, so
// every target is feasible and instances almost never repeat.
func makeRegionInputs(sh shape, seed int64, steps int) ([]tenantInput, error) {
	out := make([]tenantInput, 0, sh.Tenants)
	for i := 0; i < sh.Tenants; i++ {
		tseed := seed + int64(i)*919
		sc, err := bench.MultiRegionWorkload(sh.Switches, sh.Regions, sh.PairsPerRegion, 0, config.Reachability, tseed)
		if err != nil {
			return nil, fmt.Errorf("regions tenant %d: %w", i, err)
		}
		header := config.StreamHeader{Name: fmt.Sprintf("region-%d", i), Topology: topologyFile(sc.Topo)}
		type route struct {
			class       string
			init, final []int
		}
		var regions [][]route
		for _, cs := range sc.Specs {
			init, err := config.PathOf(sc.Init, sc.Topo, cs.Class)
			if err != nil {
				return nil, err
			}
			final, err := config.PathOf(sc.Final, sc.Topo, cs.Class)
			if err != nil {
				return nil, err
			}
			header.Classes = append(header.Classes, config.StreamClass{
				Name: cs.Class.Name, Src: cs.Class.SrcHost, Dst: cs.Class.DstHost,
				Path: init, Spec: cs.Formula.String(),
			})
			reg, ok := regionOf(cs.Class.Name)
			if !ok {
				continue
			}
			for len(regions) <= reg {
				regions = append(regions, nil)
			}
			regions[reg] = append(regions[reg], route{cs.Class.Name, init, final})
		}
		if len(regions) == 0 {
			return nil, fmt.Errorf("regions tenant %d: no regions placed", i)
		}
		r := rand.New(rand.NewSource(tseed ^ 0x5EED))
		onFinal := make([]bool, len(regions))
		deltas := make([]config.StreamDelta, 0, steps)
		for s := 0; s < steps; s++ {
			var rr []config.Reroute
			for len(rr) == 0 {
				for reg, routes := range regions {
					if r.Intn(flipOneIn) != 0 {
						continue
					}
					onFinal[reg] = !onFinal[reg]
					for _, rt := range routes {
						path := rt.init
						if onFinal[reg] {
							path = rt.final
						}
						rr = append(rr, config.Reroute{Class: rt.class, Path: path})
					}
				}
			}
			deltas = append(deltas, config.StreamDelta{Reroute: rr})
		}
		out = append(out, tenantInput{
			spec:   &server.TenantSpec{StreamHeader: header},
			deltas: deltas,
		})
	}
	return out, nil
}

// regionOf parses the region index out of the multi-region generator's
// class names ("r3p1", "r3link0").
func regionOf(class string) (int, bool) {
	if !strings.HasPrefix(class, "r") {
		return 0, false
	}
	end := 1
	for end < len(class) && class[end] >= '0' && class[end] <= '9' {
		end++
	}
	reg, err := strconv.Atoi(class[1:end])
	return reg, err == nil
}

// topologyFile serializes a topology into the stream-header wire form.
func topologyFile(t *topology.Topology) config.TopologyFile {
	tf := config.TopologyFile{Switches: t.NumSwitches()}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		for _, l := range t.Neighbors(sw) {
			if l.Peer > sw {
				tf.Links = append(tf.Links, [2]int{sw, l.Peer})
			}
		}
	}
	for _, h := range t.Hosts() {
		tf.Hosts = append(tf.Hosts, config.HostFile{ID: h.ID, Switch: h.Switch})
	}
	return tf
}
