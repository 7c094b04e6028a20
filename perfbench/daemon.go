package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// daemon-vod shape: a VoD client population driving schedulerd.
const (
	vodPeers     = 200
	vodISPs      = 5
	vodVideos    = 20
	vodNeighbors = 8   // distinct candidate uploaders per bid
	vodWindow    = 100 // prefetch window, chunks
	vodMaxCap    = 3   // upload capacity per tick is 1..vodMaxCap chunks
	vodPlayRate  = 2   // chunks each peer plays per tick

	// replayTicks is the length of the closed-loop replay; each run sets
	// up setupDaemons daemons and replays on the last replayDaemons.
	replayTicks   = 10
	setupDaemons  = 7
	replayDaemons = 3

	// tickPeriod is the open-loop tick cadence; genWorkers bounds the
	// generator's goroutines and connections.
	tickPeriod = 100 * time.Millisecond
	genWorkers = 2
	// latencyLimit is the p99 request latency a rate must meet to count
	// toward max_rate_rps.
	latencyLimit = 100 * time.Millisecond
	// p99Window: a rate's request p99 is the median of the p99s of
	// consecutive windows of this many requests (each p99 has 10 samples
	// beyond it), so one scheduling hiccup on the host moves one window,
	// not the figure.
	p99Window = 1000
)

// ladderRates are the fixed offered rates (offer, bid and grant-poll
// operations per second) of the open-loop phase, lowest first.
var ladderRates = []float64{125, 250, 500}

// topShare is the part of the open-loop phase given to the top rate.
const topShare = 0.8

// vodPeer is one client: it watches one video from its playhead on, sells
// a fixed upload capacity, and fetches from a fixed neighbor set.
type vodPeer struct {
	id        int64
	isp       int
	video     int32
	start     int32
	capacity  int
	neighbors []service.WireCandidate
}

// population is the seed-derived client population.
type population struct {
	peers []vodPeer
	byID  map[int64]*vodPeer
}

// newPopulation derives the population from the seed. Its shape is fixed
// and balanced: every video's swarm has the same size and holds the same
// number of peers from each ISP, and capacities cycle through 1..vodMaxCap.
// Each swarm is a ring in which peers of one ISP sit together, and every
// peer fetches from the vodNeighbors peers after it, so every peer serves
// as many peers as it fetches from, and half of them (the first of each ISP
// group) have a same-ISP neighbor. The ISP groups sit around every ring in
// ISP order; the seed orders the peers within each group and places every
// playhead: it decides who serves whom, not how much demand and supply
// there is or how far apart the ISPs are. Every peer's neighbors are distinct, as a
// tracker's neighbor list is: the daemon fails a whole tick on a bid that
// names one uploader twice (NOTES.md).
func newPopulation(seed uint64) *population {
	rng := rand.New(rand.NewPCG(seed, 0x766f64))
	pop := &population{byID: make(map[int64]*vodPeer, vodPeers)}
	// groups[v][i] lists video v's peers in ISP i.
	groups := make([][][]int, vodVideos)
	for v := range groups {
		groups[v] = make([][]int, vodISPs)
	}
	for i := 0; i < vodPeers; i++ {
		v, isp := i%vodVideos, (i/vodVideos)%vodISPs
		groups[v][isp] = append(groups[v][isp], i)
		pop.peers = append(pop.peers, vodPeer{
			id:       int64(i + 1),
			isp:      isp,
			video:    int32(v),
			start:    int32(rng.IntN(1000)),
			capacity: 1 + i%vodMaxCap,
		})
	}
	for _, g := range groups {
		var ring []int
		for _, members := range g {
			rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
			ring = append(ring, members...)
		}
		for pos, i := range ring {
			p := &pop.peers[i]
			for d := 1; d <= vodNeighbors; d++ {
				q := &pop.peers[ring[(pos+d)%len(ring)]]
				p.neighbors = append(p.neighbors, service.WireCandidate{Peer: q.id, Cost: linkCost(p.isp, q.isp)})
			}
		}
	}
	for i := range pop.peers {
		pop.byID[pop.peers[i].id] = &pop.peers[i]
	}
	return pop
}

// playhead is the first chunk the peer has not played by tick k.
func (p *vodPeer) playhead(k int32) int32 { return p.start + vodPlayRate*k }

// linkCost prices a transfer: cheap inside an ISP, dearer the further apart.
func linkCost(a, b int) float64 {
	if a == b {
		return 0.1
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return 0.6 + 0.2*float64(d)
}

// bids is the peer's window at tick k: every chunk in [pos, pos+vodWindow)
// it has not received, most urgent worth most, where pos is its playhead.
func (p *vodPeer) bids(k int32, have map[int32]bool) []service.WireBid {
	var out []service.WireBid
	pos := p.playhead(k)
	for d := int32(0); d < vodWindow; d++ {
		c := pos + d
		if have[c] {
			continue
		}
		out = append(out, service.WireBid{
			Video:      p.video,
			Chunk:      c,
			Value:      1 + 2*float64(vodWindow-d)/vodWindow,
			Deadline:   float64(d),
			Candidates: p.neighbors,
		})
	}
	return out
}

// client talks to one daemon over at most conns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out (when non-nil).
// Any other status is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

func (c *client) stats(ctx context.Context) (service.StatsSnapshot, error) {
	var s service.StatsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &s)
	return s, err
}

// promCounters scrapes /metrics into name → value for unlabelled series.
func (c *client) promCounters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// daemonProc is one spawned schedulerd.
type daemonProc struct {
	cmd      *exec.Cmd
	api      *client
	debug    string // debug listener base URL, "" when off
	outDone  chan struct{}
	stopOnce sync.Once
	// setup is the time from spawn to healthy with the population joined.
	setup time.Duration
}

// startDaemon spawns schedulerd with manual ticks on a loopback port and
// joins the population.
func startDaemon(ctx context.Context, bin string, withDebug bool, pop *population) (*daemonProc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-slot", "0"}
	if withDebug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning schedulerd: %w", err)
	}
	d := &daemonProc{cmd: cmd, outDone: make(chan struct{})}
	addrs := make(chan [2]string, 2) // one listening line, one debug line
	go func() {
		defer close(d.outDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); i >= 0 {
				if strings.Contains(line, "debug listener") {
					addrs <- [2]string{"debug", line[i+4:]}
				} else if strings.Contains(line, "listening on") {
					addrs <- [2]string{"api", line[i+4:]}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for d.api == nil {
		select {
		case a := <-addrs:
			if a[0] == "debug" {
				d.debug = "http://" + a[1]
			} else {
				d.api = newClient("http://"+a[1], 1)
			}
		case <-timeout.C:
			d.stop()
			return nil, errors.New("schedulerd did not report its address")
		}
	}
	if err := d.api.do(ctx, http.MethodGet, "/healthz", nil, nil); err != nil {
		d.stop()
		return nil, err
	}
	for i := range pop.peers {
		p := &pop.peers[i]
		if err := d.api.post(ctx, "/v1/join", service.JoinRequest{Peer: p.id, ISP: p.isp}, nil); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if it has not exited
// after 15 s) and waits for it to exit. Calls after the first do nothing.
func (d *daemonProc) stop() {
	d.stopOnce.Do(func() {
		if d.api != nil {
			d.api.close()
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited daemon is fine
		kill := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
		defer kill.Stop()
		<-d.outDone
		_ = d.cmd.Wait() // drain errors do not change what was measured
	})
}

// peakRSSMB is the daemon's high-water RSS so far.
func (d *daemonProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// replayRun is one closed-loop replay's measurement.
type replayRun struct {
	run     time.Duration
	cycles  []float64 // seconds per tick cycle: offers, bids, tick, polls
	tickRT  []float64 // seconds per POST /v1/tick round trip
	allocMB float64
	out     outputs // the paper's three measures, over the replay
	ticks   []service.TickResponse
	ops     int
}

// grantCheck is the client-side grant referee: every grant's uploader is a
// candidate of the peer's bid for a chunk of the peer's video, and no
// uploader is granted more chunks in a slot than it offered.
type grantCheck struct {
	pop    *population
	mu     sync.Mutex
	polled map[[2]int64]bool // (slot, peer) already counted
	load   map[[2]int64]int  // (slot, uploader) → chunks granted
	bad    []string
}

func newGrantCheck(pop *population) *grantCheck {
	return &grantCheck{pop: pop, polled: map[[2]int64]bool{}, load: map[[2]int64]int{}}
}

func (g *grantCheck) add(peer int64, resp service.GrantsResponse) {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := [2]int64{resp.Slot, peer}
	if g.polled[key] {
		return
	}
	g.polled[key] = true
	p := g.pop.byID[peer]
	for _, gr := range resp.Grants {
		ok := gr.Video == p.video
		cand := false
		for _, n := range p.neighbors {
			cand = cand || n.Peer == gr.Uploader
		}
		if !ok || !cand {
			g.bad = append(g.bad, fmt.Sprintf("slot %d: peer %d granted video %d chunk %d from non-candidate %d",
				resp.Slot, peer, gr.Video, gr.Chunk, gr.Uploader))
			continue
		}
		lk := [2]int64{resp.Slot, gr.Uploader}
		g.load[lk]++
		if up := g.pop.byID[gr.Uploader]; g.load[lk] > up.capacity {
			g.bad = append(g.bad, fmt.Sprintf("slot %d: uploader %d granted %d chunks, offered %d",
				resp.Slot, gr.Uploader, g.load[lk], up.capacity))
		}
	}
}

func (g *grantCheck) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.bad) == 0 {
		return nil
	}
	return fmt.Errorf("%d invalid grants, first: %s", len(g.bad), g.bad[0])
}

// replay drives replayTicks slots closed-loop over one connection, in a
// fixed order, so the daemon sees the same books every time for one seed:
// each peer offers and bids its window, the slot ticks, each peer polls its
// grants, and each peer plays the chunk at its playhead.
func replay(ctx context.Context, d *daemonProc, pop *population) (*replayRun, error) {
	c := d.api
	have := make([]map[int32]bool, len(pop.peers))
	for i := range have {
		have[i] = map[int32]bool{}
	}
	check := newGrantCheck(pop)
	s0, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	r := &replayRun{}
	var welfare float64
	var grants, cross, played, missed int
	start := time.Now()
	for k := int32(0); k < replayTicks; k++ {
		cycle := time.Now()
		for i := range pop.peers {
			p := &pop.peers[i]
			if err := c.post(ctx, "/v1/offer", service.OfferRequest{Peer: p.id, Capacity: p.capacity}, nil); err != nil {
				return nil, err
			}
			r.ops++
			if b := p.bids(k, have[i]); len(b) > 0 {
				if err := c.post(ctx, "/v1/bid", service.BidBatch{Peer: p.id, Bids: b}, nil); err != nil {
					return nil, err
				}
				r.ops++
			}
		}
		var tr service.TickResponse
		tick := time.Now()
		if err := c.post(ctx, "/v1/tick", struct{}{}, &tr); err != nil {
			return nil, err
		}
		r.tickRT = append(r.tickRT, time.Since(tick).Seconds())
		r.ops++
		r.ticks = append(r.ticks, tr)
		welfare += tr.Welfare
		for i := range pop.peers {
			p := &pop.peers[i]
			var gr service.GrantsResponse
			if err := c.do(ctx, http.MethodGet, "/v1/grants?peer="+strconv.FormatInt(p.id, 10), nil, &gr); err != nil {
				return nil, err
			}
			r.ops++
			if gr.Slot != tr.Slot {
				return nil, fmt.Errorf("peer %d polled slot %d after tick %d", p.id, gr.Slot, tr.Slot)
			}
			check.add(p.id, gr)
			for _, g := range gr.Grants {
				have[i][g.Chunk] = true
				grants++
				if pop.byID[g.Uploader].isp != p.isp {
					cross++
				}
			}
			for c := p.playhead(k); c < p.playhead(k+1); c++ {
				played++
				if !have[i][c] {
					missed++
				}
				delete(have[i], c)
			}
		}
		r.cycles = append(r.cycles, time.Since(cycle).Seconds())
	}
	r.run = time.Since(start)
	if err := check.err(); err != nil {
		return nil, err
	}
	s1, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	r.allocMB = float64(s1.TotalAllocBytes-s0.TotalAllocBytes) / mib
	r.out = outputs{welfare: welfare, missRate: float64(missed) / float64(played)}
	if grants > 0 {
		r.out.interISP = float64(cross) / float64(grants)
	}
	return r, nil
}

// rungResult is one offered rate of the open-loop phase.
type rungResult struct {
	rate       float64
	reqLat     []float64 // ms from due time, offer/bid/grant ops
	tickLat    []float64 // ms from due time
	service    map[string][]float64
	lateMax    float64 // ms
	lateEnd    float64 // ms, median lateness over the rung's final tenth
	ticks      []service.TickResponse
	ops, fails int
}

// reqP99 is the rung's windowed request p99 (see p99Window).
func (r *rungResult) reqP99() float64 {
	var ps []float64
	for lo := 0; lo+p99Window <= len(r.reqLat); lo += p99Window {
		ps = append(ps, quantile(r.reqLat[lo:lo+p99Window], 0.99))
	}
	if len(ps) == 0 {
		return quantile(r.reqLat, 0.99)
	}
	return median(ps)
}

// passes reports whether the rung met the latency limit without a growing
// backlog.
func (r *rungResult) passes() bool {
	lim := ms(latencyLimit)
	return r.fails == 0 && r.reqP99() <= lim && r.lateEnd <= lim
}

// ladderOps schedules one rung: ticks every tickPeriod, and rate
// operations per second that walk the swarms in turn. Each swarm's peers
// all offer, then all bid the window at the playhead the schedule has
// reached, then all poll their grants, so a tick's book holds bids whose
// candidates have offered.
func ladderOps(c *client, pop *population, rate float64, dur time.Duration, base int32,
	check *grantCheck, rr *rungResult, mu *sync.Mutex) []op {
	var ops []op
	nTicks := int(dur / tickPeriod)
	for k := 1; k <= nTicks; k++ {
		ops = append(ops, op{due: time.Duration(k) * tickPeriod, kind: "tick", do: func(ctx context.Context) error {
			var tr service.TickResponse
			if err := c.post(ctx, "/v1/tick", struct{}{}, &tr); err != nil {
				return err
			}
			mu.Lock()
			rr.ticks = append(rr.ticks, tr)
			mu.Unlock()
			return nil
		}})
	}
	const swarm = vodPeers / vodVideos // peers v, v+vodVideos, ... watch video v
	n := int(rate * dur.Seconds())
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		cycle, j := i/(3*swarm), i%(3*swarm)
		p := &pop.peers[cycle%vodVideos+(j%swarm)*vodVideos]
		k := base + int32(due/tickPeriod)
		var o op
		switch j / swarm {
		case 0:
			body := []byte(fmt.Sprintf(`{"peer":%d,"capacity":%d}`, p.id, p.capacity))
			o = op{kind: "offer", do: func(ctx context.Context) error {
				return c.do(ctx, http.MethodPost, "/v1/offer", body, nil)
			}}
		case 1:
			// A 100-chunk bid is ~30 KB of JSON: encode it just before it
			// is due and drop it once sent.
			var body []byte
			o = op{kind: "bid",
				prepare: func() (err error) {
					body, err = json.Marshal(service.BidBatch{Peer: p.id, Bids: p.bids(k, nil)})
					return err
				},
				do: func(ctx context.Context) error {
					defer func() { body = nil }()
					return c.do(ctx, http.MethodPost, "/v1/bid", body, nil)
				}}
		default:
			path := "/v1/grants?peer=" + strconv.FormatInt(p.id, 10)
			id := p.id
			o = op{kind: "grants", do: func(ctx context.Context) error {
				var gr service.GrantsResponse
				if err := c.do(ctx, http.MethodGet, path, nil, &gr); err != nil {
					return err
				}
				check.add(id, gr)
				return nil
			}}
		}
		o.due = due
		ops = append(ops, o)
	}
	// Ticks come first on ties: the stable sort keeps them ahead.
	slices.SortStableFunc(ops, func(a, b op) int { return cmp.Compare(a.due, b.due) })
	return ops
}

// runLadder drives the open-loop phase on genWorkers connections: the top
// offered rate runs for topShare of seconds, so that its percentiles rest
// on many ticks and request windows, and the lower rates share the rest.
func runLadder(ctx context.Context, d *daemonProc, pop *population, seconds float64) ([]*rungResult, error) {
	c := newClient(d.api.base, genWorkers)
	defer c.close()
	base := int32(replayTicks)
	var out []*rungResult
	for i, rate := range ladderRates {
		share := (1 - topShare) / float64(len(ladderRates)-1)
		if i == len(ladderRates)-1 {
			share = topShare
		}
		dur := time.Duration(share * seconds * float64(time.Second))
		rr := &rungResult{rate: rate, service: map[string][]float64{}}
		check := newGrantCheck(pop)
		var mu sync.Mutex
		ops := ladderOps(c, pop, rate, dur, base, check, rr, &mu)
		res := openLoop(ctx, ops, genWorkers)
		tail := len(res) - len(res)/10
		var lateTail []float64
		for i, r := range res {
			rr.ops++
			if r.err != nil {
				rr.fails++
				fmt.Fprintf(os.Stderr, "perfbench: %s at %.0f/s: %v\n", r.kind, rate, r.err)
				continue
			}
			lat := ms(r.latency)
			if r.kind == "tick" {
				rr.tickLat = append(rr.tickLat, lat)
			} else {
				rr.reqLat = append(rr.reqLat, lat)
			}
			rr.service[r.kind] = append(rr.service[r.kind], ms(r.service))
			rr.lateMax = max(rr.lateMax, ms(r.late))
			if i >= tail {
				lateTail = append(lateTail, ms(r.late))
			}
		}
		rr.lateEnd = median(lateTail)
		if err := check.err(); err != nil {
			return nil, fmt.Errorf("rate %.0f/s: %w", rate, err)
		}
		base += int32(dur / tickPeriod)
		out = append(out, rr)
	}
	return out, nil
}

// runDaemon measures daemon-vod.
func runDaemon(bin string, seed uint64, seconds float64, trace bool) (*report, error) {
	// The client collects garbage rarely, so that its own GC adds as
	// little as possible to the latencies it measures; the daemon keeps its
	// default runtime settings.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	ctx := context.Background()
	pop := newPopulation(seed)
	rep := newReport()
	if trace {
		return rep, runDaemonTraced(ctx, bin, pop, seconds, rep)
	}
	var setups, cycles, ticks, allocs, rss []float64
	var outs []outputs
	var last *daemonProc
	for i := 0; i < setupDaemons; i++ {
		d, err := startDaemon(ctx, bin, false, pop)
		if err != nil {
			return rep, err
		}
		defer d.stop()
		setups = append(setups, d.setup.Seconds())
		if i < setupDaemons-replayDaemons {
			d.stop()
			continue
		}
		rp, err := replay(ctx, d, pop)
		if rp != nil {
			rep.attempted += rp.ops
		}
		if err != nil {
			return rep, fmt.Errorf("replay: %w", err)
		}
		hwm, err := d.peakRSSMB()
		if err != nil {
			return rep, fmt.Errorf("daemon peak RSS: %w", err)
		}
		cycles = append(cycles, rp.cycles...)
		ticks = append(ticks, rp.tickRT...)
		allocs = append(allocs, rp.allocMB)
		rss = append(rss, hwm)
		outs = append(outs, rp.out)
		if i < setupDaemons-1 {
			d.stop()
		}
		last = d
	}
	for _, o := range outs[1:] {
		if o != outs[0] {
			return rep, fmt.Errorf("replay outputs differ across daemons: %+v vs %+v", o, outs[0])
		}
	}
	rungs, err := runLadder(ctx, last, pop, seconds)
	last.stop()
	if err != nil {
		return rep, err
	}
	maxRate := 0.0
	for _, r := range rungs {
		rep.attempted += r.ops
		rep.failed += r.fails
		if r.passes() {
			maxRate = r.rate
		}
		rep.notef("daemon-vod: %.0f ops/s: p50 %.2f ms, p99 %.2f ms, %d ticks p90 %.2f ms, late max %.2f ms, end %.2f ms",
			r.rate, quantile(r.reqLat, 0.5), r.reqP99(), len(r.tickLat), quantile(r.tickLat, 0.9), r.lateMax, r.lateEnd)
	}
	rep.set("setup_s", median(setups), "s")
	// The daemon's time to run a replay's slots: each tick drains a book of
	// ~20k requests, builds the instance, solves it and publishes grants.
	// The median over the run's replayed ticks keeps one host hiccup out.
	// Whole replay cycles are thousands of loopback round trips, whose
	// wake-ups swing with the host's load (their spread reached 0.44).
	rep.set("run_s", replayTicks*median(ticks), "s")
	rep.notef("daemon-vod: replay cycle median %.3f s, tick round trip median %.3f s",
		median(cycles), median(ticks))
	rep.set("alloc_mb", median(allocs), "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("welfare_total", outs[0].welfare, "utility")
	rep.set("miss_rate", outs[0].missRate, "ratio")
	rep.set("inter_isp", outs[0].interISP, "ratio")
	rep.set("max_rate_rps", maxRate, "1/s")
	return rep, nil
}

// runDaemonTraced gives daemon-vod's per-layer split: an untraced replay
// and the open-loop ladder on one daemon, and a replay captured through
// /debug/trace on a second.
func runDaemonTraced(ctx context.Context, bin string, pop *population, seconds float64, rep *report) error {
	d, err := startDaemon(ctx, bin, false, pop)
	if err != nil {
		return err
	}
	defer d.stop()
	p0, err := d.api.promCounters(ctx)
	if err != nil {
		return err
	}
	plain, err := replay(ctx, d, pop)
	if plain != nil {
		rep.attempted += plain.ops
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p1, err := d.api.promCounters(ctx)
	if err != nil {
		return err
	}
	rungs, err := runLadder(ctx, d, pop, seconds)
	if err != nil {
		return err
	}
	st, err := d.api.stats(ctx)
	if err != nil {
		return err
	}
	d.stop()

	m := map[string]float64{}
	solve, requests, grants := 0.0, 0.0, 0.0
	for _, t := range plain.ticks {
		solve += t.SolveMs / 1e3
		requests += float64(t.Requests)
		grants += float64(t.Grants)
	}
	delta := func(name string) float64 { return p1[name] - p0[name] }
	m["sched.solve_s"] = solve
	m["sched.solve_calls"] = float64(len(plain.ticks))
	m["sched.requests"] = requests
	m["sched.delta_ops"] = delta("schedulerd_solver_delta_ops_total")
	m["core.bids"] = delta("schedulerd_solver_bids_total")
	m["core.iterations"] = delta("schedulerd_solver_iterations_total")
	m["core.evictions"] = delta("schedulerd_solver_evictions_total")
	m["core.repair_rounds"] = delta("schedulerd_solver_repair_rounds_total")
	m["core.sweep_passes"] = delta("schedulerd_solver_sweep_passes_total")
	m["core.cold_restarts"] = delta("schedulerd_solver_cold_restarts_total")
	if b := m["core.bids"]; b > 0 {
		m["core.grants_per_bid"] = grants / b
	}

	// Service figures come from the top offered rate.
	top := rungs[len(rungs)-1]
	var tickSolve, tickReqs []float64
	rejected := 0.0
	lateMax := 0.0
	for _, r := range rungs {
		rep.attempted += r.ops
		rep.failed += r.fails
		lateMax = max(lateMax, r.lateMax)
	}
	for _, t := range top.ticks {
		tickSolve = append(tickSolve, t.SolveMs)
		tickReqs = append(tickReqs, float64(t.Requests))
		rejected += float64(t.Rejected)
	}
	m["lat.req_p50_ms"] = quantile(top.reqLat, 0.5)
	m["lat.req_p99_ms"] = top.reqP99()
	m["lat.tick_p50_ms"] = quantile(top.tickLat, 0.5)
	m["lat.tick_p90_ms"] = quantile(top.tickLat, 0.9)
	m["service.offer_p50_ms"] = median(top.service["offer"])
	m["service.bid_p50_ms"] = median(top.service["bid"])
	m["service.grants_p50_ms"] = median(top.service["grants"])
	m["service.tick_solve_p50_ms"] = median(tickSolve)
	m["service.tick_requests_mean"] = mean(tickReqs)
	m["service.tick_rejected"] = rejected
	m["service.heap_mb"] = float64(st.HeapAllocBytes) / mib
	m["gen.late_max_ms"] = lateMax

	split, err := tracedReplay(ctx, bin, pop, plain, rep)
	if err != nil {
		return err
	}
	for k, v := range split {
		m[k] = v
	}
	rep.setLayer(m)
	return nil
}

// tracedReplay replays on a daemon with its debug listener on, capturing
// the replay's ticks through /debug/trace, and splits the daemon's time.
func tracedReplay(ctx context.Context, bin string, pop *population, plain *replayRun, rep *report) (map[string]float64, error) {
	d, err := startDaemon(ctx, bin, true, pop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if d.debug == "" {
		return nil, errors.New("schedulerd did not report its debug listener")
	}
	type capture struct {
		spans []span
		err   error
	}
	got := make(chan capture, 1)
	go func() {
		dbg := newClient(d.debug, 1)
		defer dbg.close()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/debug/trace?slots=%d&timeout=2m", d.debug, replayTicks), nil)
		if err != nil {
			got <- capture{err: err}
			return
		}
		resp, err := dbg.http.Do(req)
		if err != nil {
			got <- capture{err: err}
			return
		}
		defer resp.Body.Close()
		spans, err := readSpans(resp.Body)
		got <- capture{spans, err}
	}()
	// The capture installs its trace as the request arrives; give it a
	// moment before the first traced operation.
	time.Sleep(100 * time.Millisecond)
	traced, err := replay(ctx, d, pop)
	if traced != nil {
		rep.attempted += traced.ops
	}
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	cp := <-got
	d.stop()
	if cp.err != nil {
		return nil, fmt.Errorf("trace capture: %w", cp.err)
	}
	if traced.out != plain.out {
		return nil, fmt.Errorf("traced replay outputs %+v differ from untraced %+v", traced.out, plain.out)
	}
	var ticks, solves, httpSpans []span
	for _, s := range cp.spans {
		switch {
		case s.track == "daemon" && s.name == "tick":
			ticks = append(ticks, s)
		case s.track == "daemon" && s.name == "solve":
			solves = append(solves, s)
		case s.track == "http":
			httpSpans = append(httpSpans, s)
		}
	}
	if len(ticks) != replayTicks {
		return nil, fmt.Errorf("trace captured %d ticks, want %d", len(ticks), replayTicks)
	}
	// The daemon's capture rings hold 1<<15 spans per track; a full ring
	// may have overwritten spans, so the split would under-count.
	if len(httpSpans) >= 1<<15 {
		return nil, fmt.Errorf("trace http ring is full (%d spans): capture may be truncated", len(httpSpans))
	}
	all := func(span) bool { return true }
	tick, solve := sumDur(ticks, all)*1e-6, sumDur(solves, all)*1e-6
	// Residual: time within the capture during which the daemon served no
	// request (client work and loopback transit).
	if len(httpSpans) == 0 {
		return nil, errors.New("trace captured no request spans")
	}
	lo, hi := httpSpans[0].start, 0.0
	for _, s := range httpSpans {
		hi = max(hi, s.end)
	}
	window := (hi - lo) * 1e-6
	residual := window - coveredWithin(httpSpans, lo, hi)*1e-6
	return map[string]float64{
		"service.tick_self_s":  tick - solve,
		"sched.solve_self_s":   solve,
		"trace.residual_s":     residual,
		"trace.residual_share": residual / window,
		"trace.overhead_ratio": median(traced.cycles) / median(plain.cycles),
	}, nil
}
