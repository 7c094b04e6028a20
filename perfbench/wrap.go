package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/sim"
)

// errSetupDone aborts a set-up-only run at its first scheduler call.
var errSetupDone = errors.New("perfbench: set-up measured")

// solveSample is one timed scheduler call.
type solveSample struct {
	start    time.Time
	dur      time.Duration
	alloc    uint64 // heap bytes allocated during the call
	requests int
	grants   int
	stats    map[string]float64
	// checkDur/checkAlloc are what the post-call checks cost; they fall
	// inside the run's wall time and are subtracted from it.
	checkDur   time.Duration
	checkAlloc uint64
}

// timedScheduler wraps the scheduler under test and times every
// Schedule/ScheduleDelta call from outside. It forwards the optional
// interfaces sim.Run looks for (sched.DeltaScheduler, sim.ISPAware), so the
// wrapped run takes exactly the code path of an unwrapped one. After each
// call, outside the timed interval, it validates the grants against the
// instance and runs the optional check hook.
type timedScheduler struct {
	inner sched.Scheduler
	// check, when set, runs after every call's validation (certificate
	// checks of the check run). slot is the call's index.
	check func(call int, in *sched.Instance, res *sched.Result) error
	// abortAtFirst makes the first call return errSetupDone: the run then
	// measured only its set-up.
	abortAtFirst bool

	ispOf      func(isp.PeerID) (isp.ID, bool)
	firstCall  time.Time
	firstAlloc uint64
	calls      []solveSample
	invalid    int // calls whose grants failed validation
}

var (
	_ sched.DeltaScheduler = (*timedScheduler)(nil)
	_ sim.ISPAware         = (*timedScheduler)(nil)
)

func (t *timedScheduler) Name() string { return t.inner.Name() }

// SetISPLookup forwards the world's topology to an ISP-aware scheduler and
// keeps it for the check run's partition referee.
func (t *timedScheduler) SetISPLookup(f func(isp.PeerID) (isp.ID, bool)) {
	t.ispOf = f
	if ia, ok := t.inner.(sim.ISPAware); ok {
		ia.SetISPLookup(f)
	}
}

func (t *timedScheduler) Schedule(in *sched.Instance) (*sched.Result, error) {
	return t.call(in, func() (*sched.Result, error) { return t.inner.Schedule(in) })
}

// ScheduleDelta forwards the producer's delta when the inner scheduler takes
// one; otherwise it makes the Schedule call sim.Run would have made.
func (t *timedScheduler) ScheduleDelta(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	ds, ok := t.inner.(sched.DeltaScheduler)
	if !ok {
		return t.Schedule(in)
	}
	return t.call(in, func() (*sched.Result, error) { return ds.ScheduleDelta(in, d) })
}

func (t *timedScheduler) call(in *sched.Instance, solve func() (*sched.Result, error)) (*sched.Result, error) {
	a0 := allocBytes()
	start := time.Now()
	if t.firstCall.IsZero() {
		t.firstCall, t.firstAlloc = start, a0
		if t.abortAtFirst {
			return nil, errSetupDone
		}
	}
	res, err := solve()
	dur := time.Since(start)
	a1 := allocBytes()
	if err != nil {
		return nil, err
	}
	n := len(t.calls)
	err = in.Validate(res.Grants)
	if err == nil && t.check != nil {
		err = t.check(n, in, res)
	}
	t.calls = append(t.calls, solveSample{
		start: start, dur: dur, alloc: a1 - a0,
		requests: len(in.Requests), grants: len(res.Grants), stats: res.Stats,
		checkDur: time.Since(start) - dur, checkAlloc: allocBytes() - a1,
	})
	if err != nil {
		t.invalid++
		return nil, fmt.Errorf("perfbench: call %d: %w", n, err)
	}
	return res, nil
}

// totals sums the calls' solve durations and allocations, and what their
// checks cost.
func (t *timedScheduler) totals() (solve, check time.Duration, solveAlloc, checkAlloc uint64) {
	for _, c := range t.calls {
		solve += c.dur
		check += c.checkDur
		solveAlloc += c.alloc
		checkAlloc += c.checkAlloc
	}
	return
}

// statSum totals one Result.Stats key over all calls.
func (t *timedScheduler) statSum(key string) float64 {
	s := 0.0
	for _, c := range t.calls {
		s += c.stats[key]
	}
	return s
}
