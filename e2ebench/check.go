package main

import (
	"fmt"
	"math/rand"
	"sync"

	"netupdate/internal/config"
	"netupdate/internal/kripke"
	"netupdate/internal/mc"
)

// The output check replays sampled plans independently of the engine:
// along a seeded random linearization of the plan's DAG, from the
// configuration the request started from, every intermediate
// configuration is model-checked with the batch checker (which relabels
// each class structure from scratch and which the engine, running the
// incremental checker, does not use), and the final configuration must
// equal the target the client computed from its own delta.

// checkAll checks every tenant's samples on `workers` goroutines and
// returns the number of plans checked and every failure.
func checkAll(inputs []tenantInput, ph *phase, seed int64, workers int) (int, []error) {
	var (
		mu      sync.Mutex
		checked int
		errs    []error
		wg      sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				n, terrs := checkTenant(&inputs[t], &ph.tenants[t], seed, t)
				mu.Lock()
				checked += n
				errs = append(errs, terrs...)
				mu.Unlock()
			}
		}()
	}
	for t := range inputs {
		next <- t
	}
	close(next)
	wg.Wait()
	return checked, errs
}

// checkTenant rebuilds the tenant's configuration history client-side
// — the server advances a tenant exactly when it answers with a plan —
// and checks every sampled answer. It returns the number checked and
// the first failure per failed sample.
func checkTenant(in *tenantInput, log *tenantLog, seed int64, tenant int) (int, []error) {
	if len(log.samples) == 0 {
		return 0, nil
	}
	base, err := in.spec.StreamHeader.Build()
	if err != nil {
		return 0, []error{fmt.Errorf("tenant %s: %w", in.spec.Name, err)}
	}
	var errs []error
	cur := base.Init
	next := 0
	for seq, adv := range log.advanced {
		if next == len(log.samples) {
			break
		}
		d := &in.deltas[seq%len(in.deltas)]
		if log.samples[next].seq == seq {
			ans := &log.samples[next].ans
			next++
			target, err := base.Apply(cur, d)
			if err == nil {
				rng := rand.New(rand.NewSource(seed ^ int64(tenant)<<32 ^ int64(seq)))
				var order []int
				if order, err = linearize(ans.preds, len(ans.switches), rng); err == nil {
					err = checkOrder(base, cur, target, ans.switches, order)
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("tenant %s request %d: %w", in.spec.Name, seq, err))
			}
		}
		if adv {
			if cur, err = base.Apply(cur, d); err != nil {
				return next, append(errs, fmt.Errorf("tenant %s request %d: %w", in.spec.Name, seq, err))
			}
		}
	}
	return next, errs
}

// linearize draws a random topological order of the plan DAG: at each
// step one of the ready nodes is picked uniformly.
func linearize(preds [][]int, n int, rng *rand.Rand) ([]int, error) {
	if len(preds) != n {
		return nil, fmt.Errorf("DAG has %d nodes for %d update steps", len(preds), n)
	}
	waiting := make([]int, n)
	succs := make([][]int, n)
	for i, ps := range preds {
		for _, p := range ps {
			if p < 0 || p >= i {
				return nil, fmt.Errorf("DAG edge %d->%d does not point forward", p, i)
			}
			succs[p] = append(succs[p], i)
		}
		waiting[i] = len(ps)
	}
	var ready, order []int
	for i := range waiting {
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		i := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, i)
		for _, s := range succs[i] {
			if waiting[s]--; waiting[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order, nil
}

// checkOrder installs the target table of each listed switch in the
// given order, starting from pre, and checks every class after every
// step; the configuration reached must equal target.
func checkOrder(base *config.StreamBase, pre, target *config.Config, switches, order []int) error {
	type classState struct {
		k   *kripke.K
		chk mc.Checker
	}
	classes := make([]classState, len(base.Specs))
	for i, cs := range base.Specs {
		k, err := kripke.Build(base.Topo, pre, cs.Class)
		if err != nil {
			return fmt.Errorf("class %s at the starting configuration: %w", cs.Class.Name, err)
		}
		chk, err := mc.NewBatch(k, cs.Formula)
		if err != nil {
			return fmt.Errorf("class %s: %w", cs.Class.Name, err)
		}
		if !chk.Check().OK {
			return fmt.Errorf("class %s violates its specification at the starting configuration", cs.Class.Name)
		}
		classes[i] = classState{k, chk}
	}
	cur := pre.Clone()
	for step, idx := range order {
		sw := switches[idx]
		tbl := target.Table(sw)
		cur.SetTable(sw, tbl)
		for i := range classes {
			delta, err := classes[i].k.UpdateSwitch(sw, tbl)
			if err != nil {
				return fmt.Errorf("step %d (update sw%d): class %s: %w", step, sw, base.Specs[i].Class.Name, err)
			}
			if len(delta.Changed()) == 0 {
				continue // the class's structure, hence its verdict, is unchanged
			}
			if v, _ := classes[i].chk.Update(delta); !v.OK {
				return fmt.Errorf("step %d (update sw%d): class %s violates its specification",
					step, sw, base.Specs[i].Class.Name)
			}
		}
	}
	if diff := config.Diff(cur, target); len(diff) > 0 {
		return fmt.Errorf("plan ends away from the target: switches %v differ", diff)
	}
	return nil
}
