package main

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// shardWorkers sizes the sharded solver's pool for a 2-core host. Results
// are bit-identical for any worker count.
const shardWorkers = 2

// staticWorlds is how many paper-static worlds one run covers.
const staticWorlds = 4

// simWorkload is one simulator workload: a world configuration and the
// scheduler that solves its slots.
type simWorkload struct {
	name string
	cfg  sim.Config
	// newScheduler builds a fresh scheduler per run: warm and sharded
	// schedulers carry state across a run's slots.
	newScheduler func() sched.Scheduler
	// checkHook returns the check run's certificate check for the given
	// scheduler and wrapper.
	checkHook func(s sched.Scheduler, t *timedScheduler) func(int, *sched.Instance, *sched.Result) error
}

// paperStatic is the paper's §V static network at full size, solved by the
// monolithic warm auction through the Builder's known deltas. One world's
// miss rate swings by a fifth from seed to seed, so a run covers
// staticWorlds worlds.
func paperStatic(seed uint64) ([]simWorkload, error) {
	var worlds []simWorkload
	for i := 0; i < staticWorlds; i++ {
		cfg, err := experiments.At(experiments.ScaleFull)
		if err != nil {
			return nil, err
		}
		cfg.Seed = worldSeed(seed, i)
		worlds = append(worlds, warmWorkload("paper-static", cfg))
	}
	return worlds, nil
}

// warmWorkload runs cfg's world through sched.WarmAuction, as a scenario
// spec with WarmStart does.
func warmWorkload(name string, cfg sim.Config) simWorkload {
	return simWorkload{
		name:         name,
		cfg:          cfg,
		newScheduler: func() sched.Scheduler { return &sched.WarmAuction{Epsilon: cfg.Epsilon} },
		checkHook: func(s sched.Scheduler, _ *timedScheduler) func(int, *sched.Instance, *sched.Result) error {
			wa := s.(*sched.WarmAuction)
			return func(int, *sched.Instance, *sched.Result) error {
				if err := wa.VerifyState(1e-9); err != nil {
					return fmt.Errorf("ε-CS certificate: %w", err)
				}
				return nil
			}
		},
	}
}

// swarmChurn is the registered sharded-churn preset at full size, with the
// shard pool sized for the host.
func swarmChurn(seed uint64) ([]simWorkload, error) {
	spec, ok := scenario.Get("sharded-churn")
	if !ok {
		return nil, errors.New("sharded-churn preset is not registered")
	}
	return []simWorkload{shardedWorkload("swarm-churn", spec, seed)}, nil
}

// shardedWorkload runs a sharded scenario spec's world through
// cluster.ShardedAuction with shardWorkers workers.
func shardedWorkload(name string, spec scenario.Spec, seed uint64) simWorkload {
	cfg := spec.Sim
	cfg.Seed = seed
	cfg.Behavior = spec.Behavior
	maxPeers := spec.Sharding.MaxShardPeers
	return simWorkload{
		name: name,
		cfg:  cfg,
		newScheduler: func() sched.Scheduler {
			return &cluster.ShardedAuction{
				Epsilon:       cfg.Epsilon,
				Workers:       shardWorkers,
				MaxShardPeers: maxPeers,
				Seed:          cfg.Seed,
			}
		},
		checkHook: func(_ sched.Scheduler, t *timedScheduler) func(int, *sched.Instance, *sched.Result) error {
			// The referee re-solves the whole slot monolithically, so it
			// checks the first, middle and last slots only.
			last := cfg.Slots*cfg.BidRoundsPerSlot - 1
			return func(call int, in *sched.Instance, res *sched.Result) error {
				if call != 0 && call != last/2 && call != last {
					return nil
				}
				part, err := cluster.PartitionInstance(in, maxPeers, t.ispOf)
				if err != nil {
					return err
				}
				if err := cluster.VerifySharded(in, part, res, cfg.Epsilon); err != nil {
					return fmt.Errorf("sharded certificate: %w", err)
				}
				return nil
			}
		},
	}
}

// simRun is one complete, measured sim.Run.
type simRun struct {
	ts      *timedScheduler
	res     *sim.Results
	setup   time.Duration // sim.Run entry to the first scheduler call
	run     time.Duration // first scheduler call to return, checks excluded
	alloc   uint64        // bytes allocated over run, checks excluded
	rssMB   float64       // the process's peak RSS during the run
	outputs outputs
}

// outputs are the paper's three results (Figs. 3–5): deterministic per seed.
type outputs struct {
	welfare, missRate, interISP float64
}

func outputsOf(r *sim.Results) outputs {
	w := 0.0
	for _, v := range r.Welfare.Values() {
		w += v
	}
	return outputs{welfare: w, missRate: r.MeanMissRate(), interISP: r.MeanInterISPFraction()}
}

// setupOnly measures the workload's set-up: sim.Run is aborted at its first
// scheduler call.
func (w simWorkload) setupOnly() (time.Duration, error) {
	ts := &timedScheduler{inner: w.newScheduler(), abortAtFirst: true}
	runtime.GC()
	t0 := time.Now()
	_, err := sim.Run(w.cfg, ts)
	if !errors.Is(err, errSetupDone) {
		return 0, fmt.Errorf("%s: set-up run: %v", w.name, err)
	}
	return ts.firstCall.Sub(t0), nil
}

// run executes the workload once. With check set, every solve also passes
// the workload's certificate check.
func (w simWorkload) run(check bool) (*simRun, error) {
	s := w.newScheduler()
	ts := &timedScheduler{inner: s}
	if check {
		ts.check = w.checkHook(s, ts)
	}
	if err := resetPeakRSS(); err != nil {
		return &simRun{ts: ts}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	t0 := time.Now()
	res, err := sim.Run(w.cfg, ts)
	end := time.Now()
	a1 := allocBytes()
	// The run's scheduler and the world's ISP lookup hold the solver state
	// and the world (gigabytes on swarm-churn); the kept measurements must
	// not keep them alive.
	ts.inner, ts.check, ts.ispOf = nil, nil, nil
	if err != nil {
		return &simRun{ts: ts}, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(ts.calls) == 0 {
		return &simRun{ts: ts}, fmt.Errorf("%s: the scheduler was never called", w.name)
	}
	_, checkDur, _, checkAlloc := ts.totals()
	rss, err := peakRSSMB("self")
	if err != nil {
		return &simRun{ts: ts}, fmt.Errorf("peak RSS: %w", err)
	}
	r := &simRun{
		rssMB:   rss,
		ts:      ts,
		res:     res,
		setup:   ts.firstCall.Sub(t0),
		run:     end.Sub(ts.firstCall) - checkDur,
		alloc:   a1 - ts.firstAlloc - checkAlloc,
		outputs: outputsOf(res),
	}
	return r, nil
}

// slotDurations splits the run into slots: slot k lasts from its first
// scheduler call to the next slot's (the last slot to the run's end), minus
// the checks made inside it.
func (r *simRun) slotDurations(roundsPerSlot int) []float64 {
	calls := r.ts.calls
	var out []float64
	for k := 0; k*roundsPerSlot < len(calls); k++ {
		first := k * roundsPerSlot
		next := first + roundsPerSlot
		var d time.Duration
		if next < len(calls) {
			d = calls[next].start.Sub(calls[first].start)
		} else {
			d = r.ts.firstCall.Add(r.run).Sub(calls[first].start)
			for _, c := range calls {
				d += c.checkDur // run already excludes every check
			}
		}
		for _, c := range calls[first:min(next, len(calls))] {
			d -= c.checkDur
		}
		out = append(out, d.Seconds())
	}
	return out
}

// layerMetrics are the untraced run's per-layer figures: the scheduler
// wrapper's timings and the solvers' Result.Stats counts.
func (r *simRun) layerMetrics() map[string]float64 {
	ts := r.ts
	solve, _, solveAlloc, _ := ts.totals()
	requests, grants := 0.0, 0.0
	for _, c := range ts.calls {
		requests += float64(c.requests)
		grants += float64(c.grants)
	}
	m := map[string]float64{
		"sched.solve_s":             solve.Seconds(),
		"sched.solve_calls":         float64(len(ts.calls)),
		"sched.solve_alloc_mb":      float64(solveAlloc) / mib,
		"sched.requests":            requests,
		"sched.delta_ops":           ts.statSum("delta_ops"),
		"sched.delta_request_churn": ts.statSum("delta_request_churn"),
		"core.bids":                 ts.statSum("bids"),
		"core.iterations":           ts.statSum("iterations"),
		"core.evictions":            ts.statSum("evictions"),
		"core.repair_rounds":        ts.statSum("repair_rounds"),
		"core.sweep_passes":         ts.statSum("sweep_passes"),
		"core.cold_restarts":        ts.statSum("cold_restarts"),
		"cluster.shards_mean":       ts.statSum("shards") / float64(len(ts.calls)),
		"cluster.migrations":        ts.statSum("migrations"),
		"cluster.cut_edges":         ts.statSum("cut_edges"),
		"cluster.idle_uploaders":    ts.statSum("idle_uploaders"),
		"sim.run_s":                 r.run.Seconds(),
		"sim.world_s":               r.run.Seconds() - solve.Seconds(),
		"sim.world_alloc_mb":        float64(r.alloc-solveAlloc) / mib,
	}
	if requests > 0 {
		m["sched.carried_share"] = ts.statSum("carried") / requests
	}
	if b := m["core.bids"]; b > 0 {
		m["core.grants_per_bid"] = grants / b
	}
	return m
}

// worldSeed derives world i's seed from the benchmark seed; world 0 runs
// under the benchmark seed itself.
func worldSeed(seed uint64, i int) uint64 { return seed ^ uint64(i)<<32 }

// runSim measures a sim workload over its worlds. Untraced (trace false),
// it reports the end-to-end metrics; traced, the per-layer split.
func runSim(worlds []simWorkload, seconds float64, trace bool) (*report, error) {
	rep := newReport()
	if trace {
		return rep, runSimTraced(worlds, seconds, rep)
	}

	// Set-up is measured on its own runs, aborted at the first scheduler
	// call, and on every full run.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		d, err := worlds[i%len(worlds)].setupOnly()
		if err != nil {
			return rep, err
		}
		setups = append(setups, d.Seconds())
	}

	// Whole passes over the worlds, so that every world weighs the same,
	// for as many passes as fit in seconds to the nearest pass.
	byWorld := make([][]*simRun, len(worlds))
	var runs []*simRun
	start := time.Now()
	for {
		pass := time.Now()
		for i, w := range worlds {
			r, err := w.run(false)
			rep.countSolves(r)
			if err != nil {
				return rep, err
			}
			runs = append(runs, r)
			byWorld[i] = append(byWorld[i], r)
		}
		if time.Since(start)+time.Since(pass)/2 >= time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	// The check run: certificates on top of validation, kept out of the
	// timed runs. It must reproduce the timed runs' outputs bit for bit.
	checked, err := worlds[0].run(true)
	rep.countSolves(checked)
	if err != nil {
		return rep, err
	}
	if err := sameOutputs(append(byWorld[0], checked)); err != nil {
		return rep, err
	}
	var pooled sim.Results
	welfare := 0.0
	for _, rs := range byWorld {
		if err := sameOutputs(rs); err != nil {
			return rep, err
		}
		r := rs[0]
		welfare += r.outputs.welfare
		pooled.TotalMissed += r.res.TotalMissed
		pooled.TotalPlayed += r.res.TotalPlayed
		pooled.TotalInterISP += r.res.TotalInterISP
		pooled.TotalGrants += r.res.TotalGrants
	}

	var runS, allocs, rss []float64
	requests := 0.0
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rssMB)
		runS = append(runS, r.run.Seconds())
		allocs = append(allocs, float64(r.alloc)/mib)
		for _, c := range r.ts.calls {
			requests += float64(c.requests)
		}
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("run_s", median(runS), "s")
	rep.set("alloc_mb", median(allocs), "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("welfare_total", welfare/float64(len(worlds)), "utility")
	rep.set("miss_rate", pooled.MeanMissRate(), "ratio")
	rep.set("inter_isp", pooled.MeanInterISPFraction(), "ratio")
	rep.set("max_rate_rps", requests/sum(runS), "1/s")
	rep.notef("%s: %d worlds, %d timed runs", worlds[0].name, len(worlds), len(runs))
	return rep, nil
}

// sameOutputs enforces the determinism gate: every run of one world gives
// bit-identical welfare, miss rate and inter-ISP share.
func sameOutputs(runs []*simRun) error {
	for i, r := range runs[1:] {
		if r.outputs != runs[0].outputs {
			return fmt.Errorf("run %d outputs %+v differ from run 0's %+v", i+1, r.outputs, runs[0].outputs)
		}
	}
	return nil
}

// runSimTraced alternates untraced and traced runs of each world for the
// per-layer split: the wrapper's timings and counts come from the untraced
// runs, span self times from the traced ones, and trace.overhead_ratio
// compares each pair.
func runSimTraced(worlds []simWorkload, seconds float64, rep *report) error {
	var plain, traced []map[string]float64
	var plainRuns []*simRun
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < seconds; i++ {
		w := worlds[i%len(worlds)]
		r, err := w.run(false)
		rep.countSolves(r)
		if err != nil {
			return err
		}
		plain = append(plain, r.layerMetrics())
		plainRuns = append(plainRuns, r)

		tr := obs.NewTrace("perfbench", traceRingSpans)
		if err := obs.Install(tr); err != nil {
			return err
		}
		t, err := w.run(false)
		obs.Uninstall()
		rep.countSolves(t)
		if err != nil {
			return err
		}
		if err := sameOutputs([]*simRun{r, t}); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		if n := tr.Dropped(); n > 0 {
			return fmt.Errorf("trace rings dropped %d spans; raise traceRingSpans", n)
		}
		split, err := simSplit(tr)
		if err != nil {
			return err
		}
		split["trace.overhead_ratio"] = t.run.Seconds() / r.run.Seconds()
		traced = append(traced, split)
	}
	// Each split comes whole from one run, the one with the median time, so
	// that its parts add up to its total.
	rep.setLayer(medianBy(plain, "sim.run_s"))
	rep.setLayer(medianBy(traced, "sim.slot_s"))
	rep.setLayer(latency(plainRuns, worlds[0].cfg.BidRoundsPerSlot))
	rep.notef("%s: %d untraced and %d traced runs", worlds[0].name, len(plain), len(traced))
	return nil
}

// latency gives the slot (tick) and request percentiles of untraced runs.
// Slots and calls differ in size along a run (swarm-churn ramps up), so
// each slot or call position is first reduced to its median over the runs;
// the percentiles are then taken over positions. A chunk request waits for
// the scheduler call that answers it, so request latency is a call's
// duration weighted by its requests.
func latency(runs []*simRun, roundsPerSlot int) map[string]float64 {
	var slots, calls, callReqs [][]float64 // [run][slot or call position]
	for _, r := range runs {
		slots = append(slots, r.slotDurations(roundsPerSlot))
		var durs, reqs []float64
		for _, c := range r.ts.calls {
			durs = append(durs, ms(c.dur))
			reqs = append(reqs, float64(c.requests))
		}
		calls = append(calls, durs)
		callReqs = append(callReqs, reqs)
	}
	ticks := positionMedians(slots)
	reqLat, reqN := positionMedians(calls), positionMedians(callReqs)
	return map[string]float64{
		"lat.tick_p50_ms": quantile(ticks, 0.5) * 1e3,
		"lat.tick_p90_ms": quantile(ticks, 0.9) * 1e3,
		"lat.req_p50_ms":  weightedQuantile(reqLat, reqN, 0.5),
		"lat.req_p99_ms":  weightedQuantile(reqLat, reqN, 0.99),
	}
}

// positionMedians reduces rows of per-position samples (one row per run) to
// each position's median over the rows.
func positionMedians(rows [][]float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for i, row := range rows {
			col[i] = row[j]
		}
		out[j] = median(col)
	}
	return out
}

// medianBy returns the map whose key value is the median (the lower of the
// two middle ones for an even count).
func medianBy(ms []map[string]float64, key string) map[string]float64 {
	sorted := slices.Clone(ms)
	slices.SortFunc(sorted, func(a, b map[string]float64) int { return cmp.Compare(a[key], b[key]) })
	return sorted[(len(sorted)-1)/2]
}
