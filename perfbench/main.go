// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload, checks the program's outputs, and prints the measured metrics
// as the last line of standard output:
//
//	perfbench --workload paper-static --seed 1 --seconds 24 --trace 0
//
// Workloads: paper-static (the paper's §V static 500-peer network, warm
// auction), swarm-churn (the sharded-churn preset, ~100k cumulative peers,
// sharded auction) and daemon-vod (schedulerd driven over loopback by an
// open-loop VoD client population). --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer split. NOTES.md defines every
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// Run-shape constants shared by the sim workloads.
const (
	// setupRuns is how many set-up-only runs precede the timed runs.
	setupRuns = 9
	// traceRingSpans sizes every obs track's ring. A full swarm-churn run
	// records ~1800 shard-solve spans over two worker tracks; a traced run
	// that drops any span fails rather than under-reporting.
	traceRingSpans = 1 << 16
)

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit; BENCHMARK.json declares the same names.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"run_s":         "s",
	"alloc_mb":      "MB",
	"peak_rss_mb":   "MB",
	"welfare_total": "utility",
	"miss_rate":     "ratio",
	"inter_isp":     "ratio",
	"max_rate_rps":  "1/s",
}

var perLayer = map[string]string{
	"lat.tick_p50_ms":            "ms",
	"lat.tick_p90_ms":            "ms",
	"lat.req_p50_ms":             "ms",
	"lat.req_p99_ms":             "ms",
	"sched.solve_s":              "s",
	"sched.solve_calls":          "count",
	"sched.solve_alloc_mb":       "MB",
	"sched.solve_self_s":         "s",
	"sched.requests":             "count",
	"sched.carried_share":        "ratio",
	"sched.delta_ops":            "count",
	"sched.delta_request_churn":  "count",
	"core.bids":                  "count",
	"core.iterations":            "count",
	"core.evictions":             "count",
	"core.repair_rounds":         "count",
	"core.sweep_passes":          "count",
	"core.cold_restarts":         "count",
	"core.grants_per_bid":        "ratio",
	"cluster.shards_mean":        "count",
	"cluster.migrations":         "count",
	"cluster.cut_edges":          "count",
	"cluster.idle_uploaders":     "count",
	"cluster.partition_s":        "s",
	"cluster.merge_s":            "s",
	"cluster.shard_solve_s":      "s",
	"cluster.shard_phase_s":      "s",
	"cluster.shard_queue_wait_s": "s",
	"cluster.identity_share":     "ratio",
	"sim.run_s":                  "s",
	"sim.world_s":                "s",
	"sim.world_alloc_mb":         "MB",
	"sim.slot_s":                 "s",
	"sim.refresh_s":              "s",
	"sim.build_s":                "s",
	"sim.apply_s":                "s",
	"sim.economics_s":            "s",
	"service.offer_p50_ms":       "ms",
	"service.bid_p50_ms":         "ms",
	"service.grants_p50_ms":      "ms",
	"service.tick_solve_p50_ms":  "ms",
	"service.tick_self_s":        "s",
	"service.tick_requests_mean": "count",
	"service.tick_rejected":      "count",
	"service.heap_mb":            "MB",
	"gen.late_max_ms":            "ms",
	"trace.residual_s":           "s",
	"trace.residual_share":       "ratio",
	"trace.overhead_ratio":       "ratio",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one invocation's result.
type report struct {
	attempted, failed int
	metrics           map[string]metricValue
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// setLayer records per-layer metrics; their units come from perLayer.
func (r *report) setLayer(m map[string]float64) {
	for k, v := range m {
		r.set(k, v, perLayer[k])
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// countSolves adds a sim run's scheduler calls to the operation counts; a
// call whose grants failed validation or a certificate check is a failure.
func (r *report) countSolves(s *simRun) {
	if s == nil || s.ts == nil {
		return
	}
	r.attempted += len(s.ts.calls)
	r.failed += s.ts.invalid
}

// finish checks that the run measured exactly the metrics of its kind, all
// finite. Per-layer metrics of a layer the workload never calls read 0.
func (r *report) finish(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
		for name, unit := range perLayer {
			if _, ok := r.metrics[name]; !ok {
				r.set(name, 0, unit)
			}
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared for this kind of run", name)
		}
	}
	for name := range want {
		v, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "paper-static, swarm-churn or daemon-vod")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	schedulerd := flag.String("schedulerd", "", "schedulerd binary for daemon-vod")
	flag.Parse()

	rep, err := run(*workload, *seed, *seconds, *trace == 1, *schedulerd)
	if rep == nil {
		rep = newReport()
	}
	if err == nil {
		err = rep.finish(*trace == 1)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep.failed == 0 {
			rep.attempted++
			rep.failed = 1
		}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{err == nil && rep.failed == 0, rep.attempted, rep.failed, rep.metrics}
	line, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace bool, schedulerd string) (*report, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	switch workload {
	case "paper-static", "swarm-churn":
		build := paperStatic
		if workload == "swarm-churn" {
			build = swarmChurn
		}
		worlds, err := build(seed)
		if err != nil {
			return nil, err
		}
		return runSim(worlds, seconds, trace)
	case "daemon-vod":
		if schedulerd == "" {
			return nil, fmt.Errorf("daemon-vod needs --schedulerd")
		}
		return runDaemon(schedulerd, seed, seconds, trace)
	default:
		return nil, fmt.Errorf("unknown --workload %q", workload)
	}
}
