package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/isp"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// smallChurn is the sharded-churn preset cut down to test size.
func smallChurn(t *testing.T, maxShardPeers int) scenario.Spec {
	t.Helper()
	spec, ok := scenario.Get("sharded-churn")
	if !ok {
		t.Fatal("sharded-churn preset is not registered")
	}
	spec.Sim.Slots = 4
	spec.Sim.ArrivalPerSec = 150
	spec.Sharding.MaxShardPeers = maxShardPeers
	return spec
}

// The wrapper must not change the program it measures: a wrapped run gives
// the same outputs as scenario.Spec.Run at the same seed, bit for bit.
func TestWrappedRunMatchesScenarioRun(t *testing.T) {
	const seed = 7
	small, err := experiments.At(experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	warmSpec := scenario.Spec{Name: "warm", Kind: scenario.KindSim, Solver: scenario.SolverAuction,
		WarmStart: true, Sim: small}
	cfg := small
	cfg.Seed = seed

	cases := []struct {
		name string
		spec scenario.Spec
		w    simWorkload
	}{
		{"warm", warmSpec, warmWorkload("warm", cfg)},
		{"sharded", smallChurn(t, 0), shardedWorkload("sharded", smallChurn(t, 0), seed)},
		// ISP-affinity refinement depends on the ISP lookup sim.Run injects,
		// so this case fails if the wrapper drops SetISPLookup.
		{"sharded-refined", smallChurn(t, 12), shardedWorkload("sharded-refined", smallChurn(t, 12), seed)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.spec.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, check := range []bool{false, true} {
				got, err := tc.w.run(check)
				if err != nil {
					t.Fatalf("check=%v: %v", check, err)
				}
				if got.outputs.welfare != want.Metrics["welfare_total"] ||
					got.outputs.missRate != want.Metrics["miss_rate"] ||
					got.outputs.interISP != want.Metrics["inter_isp"] {
					t.Fatalf("check=%v: wrapped outputs %+v, scenario welfare %v miss %v inter-ISP %v", check,
						got.outputs, want.Metrics["welfare_total"], want.Metrics["miss_rate"], want.Metrics["inter_isp"])
				}
			}
		})
	}
}

// recorder is a scheduler that notes which of the optional interfaces
// sim.Run reached it through.
type recorder struct {
	sched.WarmAuction
	deltas, plain int
	lookup        bool
}

func (r *recorder) Schedule(in *sched.Instance) (*sched.Result, error) {
	r.plain++
	return r.WarmAuction.Schedule(in)
}

func (r *recorder) ScheduleDelta(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	r.deltas++
	return r.WarmAuction.ScheduleDelta(in, d)
}

func (r *recorder) SetISPLookup(func(isp.PeerID) (isp.ID, bool)) { r.lookup = true }

func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	cfg, err := experiments.At(experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Slots = 2
	rec := &recorder{WarmAuction: sched.WarmAuction{Epsilon: cfg.Epsilon}}
	ts := &timedScheduler{inner: rec}
	if _, err := sim.Run(cfg, ts); err != nil {
		t.Fatal(err)
	}
	calls := cfg.Slots * cfg.BidRoundsPerSlot
	if rec.deltas != calls || rec.plain != 0 {
		t.Errorf("inner saw %d ScheduleDelta and %d Schedule calls, want %d and 0", rec.deltas, rec.plain, calls)
	}
	if !rec.lookup {
		t.Error("SetISPLookup was not forwarded")
	}
	if len(ts.calls) != calls {
		t.Errorf("wrapper timed %d calls, want %d", len(ts.calls), calls)
	}
}

func TestSetupOnlyStopsAtFirstCall(t *testing.T) {
	cfg, err := experiments.At(experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	w := warmWorkload("warm", cfg)
	d, err := w.setupOnly()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("set-up took %v", d)
	}
}

func TestSlotDurationsSumToRun(t *testing.T) {
	cfg, err := experiments.At(experiments.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	r, err := warmWorkload("warm", cfg).run(true)
	if err != nil {
		t.Fatal(err)
	}
	slots := r.slotDurations(cfg.BidRoundsPerSlot)
	if len(slots) != cfg.Slots {
		t.Fatalf("%d slot durations, want %d", len(slots), cfg.Slots)
	}
	if got, want := sum(slots), r.run.Seconds(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("slot durations sum to %v s, run took %v s", got, want)
	}
}
