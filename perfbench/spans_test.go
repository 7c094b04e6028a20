package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCoveredWithinCountsOverlapOnce(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 15}, {start: 20, end: 30}, {start: 40, end: 50}}
	if got := coveredWithin(spans, 0, 45); got != 15+10+5 {
		t.Fatalf("covered %v, want 30", got)
	}
}

func TestReadSpansRoundTrip(t *testing.T) {
	tr := obs.NewTrace("test", 16)
	if err := obs.Install(tr); err != nil {
		t.Fatal(err)
	}
	tk := obs.TrackFor("sim")
	outer := tk.Begin("slot")
	inner := tk.Begin("solve")
	inner.Arg("bids", 3)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	obs.Uninstall()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].name != "slot" || spans[1].name != "solve" {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].track != "sim" || spans[1].args["bids"] != 3 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].dur() < 1000 || spans[0].dur() < spans[1].dur() {
		t.Fatalf("durations %v, %v µs", spans[0].dur(), spans[1].dur())
	}
	if d := spans[1].start - spans[0].start; d < 0 || math.IsNaN(d) {
		t.Fatalf("solve starts before its slot")
	}
}
