package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// span is one completed span of an obs trace, in microseconds since the
// trace epoch.
type span struct {
	track      string
	name       string
	start, end float64
	args       map[string]float64
}

func (s span) dur() float64 { return s.end - s.start }

// readSpans parses a trace in the Chrome trace-event JSON that
// obs.Trace.WriteJSON writes (and schedulerd's /debug/trace serves).
func readSpans(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string                     `json:"name"`
			Ph   string                     `json:"ph"`
			Tid  int                        `json:"tid"`
			Ts   float64                    `json:"ts"`
			Dur  float64                    `json:"dur"`
			Args map[string]json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	tracks := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			var name string
			if err := json.Unmarshal(e.Args["name"], &name); err != nil {
				return nil, fmt.Errorf("decoding track name: %w", err)
			}
			tracks[e.Tid] = name
		}
	}
	var out []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{track: tracks[e.Tid], name: e.Name, start: e.Ts, end: e.Ts + e.Dur}
		if len(e.Args) > 0 {
			s.args = make(map[string]float64, len(e.Args))
			for k, raw := range e.Args {
				var v float64
				if err := json.Unmarshal(raw, &v); err == nil {
					s.args[k] = v
				}
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// sumDur totals the durations (µs) of the spans matching keep.
func sumDur(spans []span, keep func(span) bool) float64 {
	t := 0.0
	for _, s := range spans {
		if keep(s) {
			t += s.dur()
		}
	}
	return t
}

// coveredWithin returns how much of [lo, hi] the spans cover: overlapping
// spans (parallel shard workers) count once.
func coveredWithin(spans []span, lo, hi float64) float64 {
	total, reach := 0.0, lo
	for _, s := range spans { // sorted by start
		if s.start >= hi {
			break
		}
		a, b := max(s.start, reach), min(s.end, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// simSplit turns a traced sim run into self times per layer. The sim track
// holds slot spans with refresh, build, solve, apply and economics children;
// inside each solve, the cluster track holds partition and merge and the
// shard-worker tracks hold the shard solves. By construction
//
//	sim.slot_s = sim.refresh_s + sim.build_s + sim.apply_s + sim.economics_s
//	             + cluster.partition_s + cluster.shard_phase_s + cluster.merge_s
//	             + sched.solve_self_s + trace.residual_s
//
// where sched.solve_self_s is solve time no cluster span covers (the whole
// solve for a monolithic scheduler) and trace.residual_s is slot time no
// child span covers (departures and arrivals at the slot's end).
func simSplit(tr *obs.Trace) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	spans, err := readSpans(&buf)
	if err != nil {
		return nil, err
	}
	on := func(track, name string) func(span) bool {
		return func(s span) bool { return s.track == track && s.name == name }
	}
	var shardSolves, solves []span
	queueWait, identity := 0.0, 0
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.track, "shard-worker-") && s.name == "shard-solve":
			shardSolves = append(shardSolves, s)
			queueWait += s.args["queue_wait_us"]
			if s.args["identity"] == 1 {
				identity++
			}
		case s.track == "sim" && s.name == "solve":
			solves = append(solves, s)
		}
	}
	if len(solves) == 0 {
		return nil, fmt.Errorf("trace holds no sim solve spans")
	}
	phase := 0.0
	for _, s := range solves {
		phase += coveredWithin(shardSolves, s.start, s.end)
	}
	slot := sumDur(spans, on("sim", "slot"))
	refresh := sumDur(spans, on("sim", "refresh"))
	build := sumDur(spans, on("sim", "build"))
	apply := sumDur(spans, on("sim", "apply"))
	econ := sumDur(spans, on("sim", "economics"))
	solve := sumDur(spans, on("sim", "solve"))
	partition := sumDur(spans, on("cluster", "partition"))
	merge := sumDur(spans, on("cluster", "merge"))
	residual := slot - refresh - build - apply - econ - solve
	const s = 1e-6 // µs → s
	m := map[string]float64{
		"sim.slot_s":                 slot * s,
		"sim.refresh_s":              refresh * s,
		"sim.build_s":                build * s,
		"sim.apply_s":                apply * s,
		"sim.economics_s":            econ * s,
		"sched.solve_self_s":         (solve - partition - merge - phase) * s,
		"cluster.partition_s":        partition * s,
		"cluster.merge_s":            merge * s,
		"cluster.shard_solve_s":      sumDur(shardSolves, func(span) bool { return true }) * s,
		"cluster.shard_phase_s":      phase * s,
		"cluster.shard_queue_wait_s": queueWait * s,
		"trace.residual_s":           residual * s,
		"trace.residual_share":       residual / slot,
	}
	if len(shardSolves) > 0 {
		m["cluster.identity_share"] = float64(identity) / float64(len(shardSolves))
	}
	return m, nil
}
