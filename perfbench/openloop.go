package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled operation of an open-loop run.
type op struct {
	due  time.Duration // offset from the run's start
	kind string
	// prepare, when set, runs when a worker takes the op, before it is due
	// and off the timed path: it builds what do sends, so that a long
	// schedule's request bodies need not all sit in memory at once.
	prepare func() error
	do      func(ctx context.Context) error
}

// opResult is what the generator measured for one op.
type opResult struct {
	kind string
	// latency runs from the op's due time to its completion, so a stall
	// also charges every op that was due while it lasted.
	latency time.Duration
	// service runs from the op's actual send to its completion.
	service time.Duration
	// late is how far behind its due time the op was sent.
	late time.Duration
	err  error
}

// openLoop sends ops (sorted by due time) on their schedule, whatever the
// system's response times: workers goroutines take the ops in due order,
// wait until each is due, and send it. When every worker is busy, ops are
// sent late, and that lateness is part of their latency. The results are in
// op order.
func openLoop(ctx context.Context, ops []op, workers int) []opResult {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				if o.prepare != nil {
					if err := o.prepare(); err != nil {
						results[i] = opResult{kind: o.kind, err: err}
						continue
					}
				}
				due := start.Add(o.due)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				sent := time.Now()
				err := ctx.Err()
				if err == nil {
					err = o.do(ctx)
				}
				done := time.Now()
				results[i] = opResult{
					kind:    o.kind,
					latency: done.Sub(due),
					service: done.Sub(sent),
					late:    max(sent.Sub(due), 0),
					err:     err,
				}
			}
		}()
	}
	wg.Wait()
	return results
}
