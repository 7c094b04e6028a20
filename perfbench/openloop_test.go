package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// With one stalled request, the open-loop generator must charge the stall
// to every op that was due while it lasted, and report growing lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()

	const n, every, stalled = 60, 2 * time.Millisecond, 10
	ops := make([]op, n)
	for i := range ops {
		path := "/ok"
		if i == stalled {
			path = "/stall"
		}
		ops[i] = op{due: time.Duration(i) * every, kind: "get", do: func(ctx context.Context) error {
			return c.do(ctx, http.MethodGet, path, nil, nil)
		}}
	}
	res := openLoop(context.Background(), ops, 1)

	for i, r := range res {
		if r.err != nil {
			t.Fatalf("op %d: %v", i, r.err)
		}
	}
	if res[stalled].latency < stall {
		t.Fatalf("stalled op latency %v, want at least %v", res[stalled].latency, stall)
	}
	// The next op was due one interval after the stalled one and could not
	// be sent until the stall ended: its latency includes the stall, though
	// its own service time does not.
	next := res[stalled+1]
	if next.latency < stall-every {
		t.Errorf("op after the stall: latency %v, want at least %v", next.latency, stall-every)
	}
	if next.service >= stall/2 {
		t.Errorf("op after the stall: service time %v should exclude the stall", next.service)
	}
	if next.late < stall-every {
		t.Errorf("op after the stall was %v late, want at least %v", next.late, stall-every)
	}
	// Lateness grew from near zero before the stall; afterwards the
	// generator catches up.
	if res[stalled+2].late > res[stalled+1].late {
		t.Errorf("lateness should shrink as the generator catches up: %v then %v",
			res[stalled+1].late, res[stalled+2].late)
	}
	if res[stalled-1].late > stall/2 {
		t.Errorf("op before the stall was %v late", res[stalled-1].late)
	}
}

func TestGrantCheck(t *testing.T) {
	pop := newPopulation(3)
	p := &pop.peers[0]
	up := pop.byID[p.neighbors[0].Peer]
	good := service.WireGrant{Video: p.video, Chunk: 1, Uploader: up.id}

	g := newGrantCheck(pop)
	g.add(p.id, service.GrantsResponse{Slot: 1, Grants: []service.WireGrant{good}})
	if err := g.err(); err != nil {
		t.Fatalf("valid grant rejected: %v", err)
	}

	stranger := int64(0)
	for _, q := range pop.peers {
		isNeighbor := q.id == p.id
		for _, n := range p.neighbors {
			isNeighbor = isNeighbor || n.Peer == q.id
		}
		if !isNeighbor {
			stranger = q.id
			break
		}
	}
	g = newGrantCheck(pop)
	g.add(p.id, service.GrantsResponse{Slot: 1, Grants: []service.WireGrant{{Video: p.video, Chunk: 1, Uploader: stranger}}})
	if g.err() == nil {
		t.Fatal("grant from a non-candidate uploader passed")
	}

	g = newGrantCheck(pop)
	var over []service.WireGrant
	for c := int32(0); c <= int32(up.capacity); c++ {
		over = append(over, service.WireGrant{Video: p.video, Chunk: c, Uploader: up.id})
	}
	g.add(p.id, service.GrantsResponse{Slot: 1, Grants: over})
	if g.err() == nil {
		t.Fatalf("uploader with capacity %d granted %d chunks without error", up.capacity, len(over))
	}
}

func TestPopulationNeighborsDistinct(t *testing.T) {
	pop := newPopulation(5)
	for _, p := range pop.peers {
		if len(p.neighbors) != vodNeighbors {
			t.Fatalf("peer %d has %d neighbors", p.id, len(p.neighbors))
		}
		seen := map[int64]bool{p.id: true}
		for _, n := range p.neighbors {
			if seen[n.Peer] {
				t.Fatalf("peer %d names uploader %d twice or itself", p.id, n.Peer)
			}
			seen[n.Peer] = true
		}
	}
}
