package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/security"
	"repro/internal/vclock"
)

// chanSpec describes one upstream channel the generator plays.
type chanSpec struct {
	id      uint32
	params  audio.Params
	codec   string
	payload func(seq uint64) []byte // the seq'th chunk (10 ms), seeded
	phase   time.Duration           // offset inside the 10 ms tick
	ctlTick uint64                  // which tick of each second carries the Control
}

// event is one planned control-plane action.
type event struct {
	at   time.Duration // from the start of its phase (set-up or window)
	kind int
	l    *listener
}

const (
	evSubscribe = iota
	evCancel
)

// inprocPlan is a workload's seeded make-up. build is called once per
// set-up and must return the same plan for the same seed.
type inprocPlan struct {
	channels  []chanSpec
	relayCfg  relay.Config
	keyring   *security.Keyring
	listeners []*listener
	setup     []*listener // initial audience: all must lease before the window
	wave      int         // set-up joins in flight at once
	window    []event     // window-relative
	leaseMs   uint32
}

const (
	tick            = 10 * time.Millisecond
	controlInterval = time.Second
	setupRuns       = 7
	relayAddr       = lan.Addr("10.0.0.1:5006")
	groupAddr       = lan.Addr("239.72.1.1:5004")
)

// instance is one set-up of an in-process workload: relay, substrate,
// generator and listener model.
type instance struct {
	plan   *inprocPlan
	sink   *sink
	conn   *memConn
	relay  *relay.Relay
	auth   *authTrace
	base   time.Time
	gen    *generator
	relayW sync.WaitGroup
	built  time.Time // just before relay.New: set-up time runs from here
}

func newInstance(plan *inprocPlan, seconds int, traced bool) (*instance, error) {
	base := time.Now()
	maxCh := uint32(0)
	for _, c := range plan.channels {
		if c.id > maxCh {
			maxCh = c.id
		}
	}
	// Capacity for every packet the generator can inject into one
	// instance: its set-up is bounded by setupTimeout, the window by
	// seconds, the drain by drainTimeout.
	span := setupTimeout + time.Duration(seconds)*time.Second + drainTimeout + 2*time.Second
	maxData := int(span/tick) + 1
	maxCtl := int(span/controlInterval) + 2
	s := &sink{
		base: base, byAddr: make(map[lan.Addr]*listener, len(plan.listeners)), traced: traced,
		delivery: newCopyWindows(), joinLat: newSecondWindows(),
		ackReached: make(chan struct{}, 1),
	}
	if traced {
		s.spans = &spanLog{base: base}
	}
	s.streams = make([]*streamRec, maxCh+1)
	for _, c := range plan.channels {
		s.streams[c.id] = newStreamRec(c.id, 1, maxData, maxCtl)
	}
	for i, l := range plan.listeners {
		l.mu = &s.stripes[i%sinkStripes].Mutex
		s.byAddr[l.addr] = l
	}
	cfg := plan.relayCfg
	cfg.Group = groupAddr
	in := &instance{plan: plan, sink: s, base: base}
	if plan.keyring != nil {
		var a security.Authenticator = plan.keyring.Relay()
		if traced {
			in.auth = &authTrace{log: s.spans}
			a = wrapAuth(a, in.auth)
		}
		cfg.Auth = a
	}
	in.conn = newMemConn(relayAddr, groupAddr, s)
	in.conn.traced = traced
	// Collect now, so no GC cycle the benchmark's own allocations made
	// due runs inside the timed set-up.
	runtime.GC()
	in.built = time.Now()
	r, err := relay.New(vclock.System, in.conn, cfg)
	if err != nil {
		return nil, err
	}
	in.relay = r
	in.relayW.Add(1)
	go func() {
		defer in.relayW.Done()
		r.Run()
	}()
	in.gen = startGenerator(in, base)
	return in, nil
}

func (in *instance) stop() {
	in.gen.halt()
	in.relay.Stop()
	in.relayW.Wait()
}

// generator injects every channel's Control and Data on the seeded
// open-loop schedule and records each packet before handing it over.
type generator struct {
	in      *instance
	stopCh  chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	lag     hist // due -> hand-off, window packets only
	inWin   bool
	stopped bool
}

func startGenerator(in *instance, base time.Time) *generator {
	g := &generator{in: in, stopCh: make(chan struct{})}
	g.done.Add(1)
	go g.run(base)
	return g
}

func (g *generator) halt() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		close(g.stopCh)
	}
	g.mu.Unlock()
	g.done.Wait()
}

func (g *generator) run(base time.Time) {
	defer g.done.Done()
	chans := g.in.plan.channels
	start := time.Since(base) + 5*time.Millisecond
	perSec := uint64(controlInterval / tick)
	type due struct {
		at  time.Duration
		c   *chanSpec
		ctl bool
	}
	var slot []due
	for k := uint64(0); ; k++ {
		// This tick's packets in due order. Every channel opens with a
		// Control, then repeats it once a second on its own seeded tick,
		// half a tick after that tick's Data, so a Control's fan-out and
		// a Data's fan-out never start at the same instant.
		slot = slot[:0]
		for i := range chans {
			c := &chans[i]
			at := start + time.Duration(k)*tick + c.phase
			if k == 0 {
				slot = append(slot, due{at, c, true})
			}
			slot = append(slot, due{at, c, false})
			if k > 0 && k%perSec == c.ctlTick%perSec {
				slot = append(slot, due{at + tick/2, c, true})
			}
		}
		sort.SliceStable(slot, func(i, j int) bool { return slot[i].at < slot[j].at })
		for _, d := range slot {
			if wait := d.at - time.Since(base); wait > 0 {
				select {
				case <-g.stopCh:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-g.stopCh:
					return
				default:
				}
			}
			if !g.inject(d.c, k, d.at, d.ctl, base) {
				return
			}
		}
	}
}

// inject records one packet and hands it to the relay.
func (g *generator) inject(c *chanSpec, k uint64, due time.Duration, isCtl bool, base time.Time) bool {
	st := g.in.sink.streams[c.id]
	if isCtl {
		seq := st.ctlHead.Load() + 1
		ctl := proto.Control{
			Channel: c.id, Epoch: st.epoch, Seq: seq,
			Producer: int64(time.Duration(k) * tick),
			Params:   c.params, Codec: c.codec,
			Interval: uint32(controlInterval / time.Millisecond),
		}
		pkt, err := ctl.Marshal()
		if err != nil || int(seq) > len(st.ctl) {
			return false
		}
		st.ctl[seq-1], st.ctlDue[seq-1] = pkt, int64(due)
		st.ctlHead.Store(seq)
		return g.in.conn.push(lan.Packet{From: "10.0.0.2:5004", To: groupAddr, Data: pkt})
	}
	seq := k + 1
	if int(seq) > len(st.data) {
		return false
	}
	g.mu.Lock()
	inWin := g.inWin
	g.mu.Unlock()
	if inWin && seq < st.winFirst.Load() {
		st.winFirst.Store(seq)
	}
	d := proto.Data{
		Channel: c.id, Epoch: st.epoch, Seq: seq,
		PlayAt:  int64(time.Duration(k)*tick + 200*time.Millisecond),
		Payload: c.payload(seq),
	}
	pkt, err := d.Marshal()
	if err != nil {
		return false
	}
	st.data[seq-1], st.dataDue[seq-1] = pkt, int64(due)
	st.head.Store(seq)
	sent := time.Since(base)
	if !g.in.conn.push(lan.Packet{From: "10.0.0.2:5004", To: groupAddr, Data: pkt}) {
		return false
	}
	g.in.sink.spans.add("generator.send", packetID(pkt), int64(due), int64(sent))
	st.pushed[seq-1].Store(int64(time.Since(base)))
	if inWin {
		g.mu.Lock()
		g.lag.add(int64(sent-due), 1)
		g.mu.Unlock()
	}
	return true
}

// client plays a list of control-plane events open loop from origin.
type client struct {
	in     *instance
	stopCh chan struct{}
	done   sync.WaitGroup
	subsIn []lan.Packet // recorded Subscribe bodies (for the proto replay)
}

func (in *instance) play(events []event, origin time.Duration) *client {
	c := &client{in: in, stopCh: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		for _, ev := range events {
			due := origin + ev.at
			if d := due - time.Since(in.base); d > 0 {
				select {
				case <-c.stopCh:
					return
				case <-time.After(d):
				}
			} else {
				select {
				case <-c.stopCh:
					return
				default:
				}
			}
			if !c.do(ev, int64(due)) {
				return
			}
		}
	}()
	return c
}

func (c *client) halt() {
	close(c.stopCh)
	c.done.Wait()
}

func (c *client) do(ev event, due int64) bool {
	l := ev.l
	sub := proto.Subscribe{Channel: l.ch, Seq: 1, LeaseMs: c.in.plan.leaseMs, Profile: uint8(l.prof)}
	if ev.kind == evCancel {
		sub = proto.Subscribe{Channel: l.ch, Seq: 2}
		l.mu.Lock()
		l.cancelSent = due
		l.mu.Unlock()
	} else {
		l.subSent, l.subSeq = due, 1
		l.subPushed = int64(time.Since(c.in.base))
	}
	pkt, _ := sub.Marshal()
	if len(c.subsIn) < 4096 {
		c.subsIn = append(c.subsIn, lan.Packet{Data: pkt})
	}
	if l.signer != nil {
		pkt = l.signer.Sign(pkt)
	}
	return c.in.conn.push(lan.Packet{From: l.addr, To: relayAddr, Data: pkt, Recv: time.Now()})
}

const (
	setupTimeout = 20 * time.Second
	drainTimeout = 3 * time.Second
)

// joinInitial subscribes the plan's initial audience as fast as the
// relay's admission takes it: wave joins at a time, each wave sent as
// soon as every join before it holds a lease. (One burst of thousands
// would overflow the relay's admission queue, which sheds the excess
// by design.) It reports when the last lease was granted, or false
// when the leases did not all arrive within timeout.
func (in *instance) joinInitial(timeout time.Duration) (time.Time, bool) {
	s := in.sink
	c := &client{in: in}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	ls := in.plan.setup
	for i := 0; i < len(ls); i += in.plan.wave {
		wave := ls[i:min(i+in.plan.wave, len(ls))]
		s.ackWant.Store(int64(i + len(wave)))
		now := int64(time.Since(in.base))
		for _, l := range wave {
			if !c.do(event{kind: evSubscribe, l: l}, now) {
				return time.Time{}, false
			}
		}
		for s.acks.Load() < s.ackWant.Load() {
			select {
			case <-s.ackReached:
			case <-deadline.C:
				return time.Time{}, false
			}
		}
	}
	return time.Now(), true
}

// inprocResult is what a measured in-process window produced.
type inprocResult struct {
	out         *output
	setupTimes  []float64
	windowStart time.Duration
}

// runInproc sets the workload up setupRuns times (keeping the last),
// measures one window, drains, and computes every metric.
func runInproc(name string, seed int64, build func() *inprocPlan, seconds int, traced bool, out *output) error {
	var in *instance
	var setupTimes samples
	idle := runtime.NumGoroutine()
	for k := 0; k < setupRuns; k++ {
		plan := build()
		inst, err := newInstance(plan, seconds, traced)
		if err != nil {
			return err
		}
		leased, ok := inst.joinInitial(setupTimeout)
		if !ok {
			inst.stop()
			return fmt.Errorf("%s: set-up %d: not every initial listener leased within %v", name, k, setupTimeout)
		}
		setupTimes = append(setupTimes, leased.Sub(inst.built).Seconds())
		if k < setupRuns-1 {
			inst.stop()
			// Return the discarded set-up's memory before the next, so
			// the peak RSS is the kept set-up's, not a sum of discarded
			// ones or a GC-timing accident. A stopped relay's sweep
			// goroutine sleeps out its interval before it exits, and
			// holds the relay until then.
			waitGoroutines(idle, 2*time.Second)
			debug.FreeOSMemory()
			continue
		}
		in = inst
	}
	plan := in.plan
	s := in.sink

	// Open the window.
	rt0 := readRuntime()
	peak := startHeapPeak()
	st0 := in.relay.Stats()
	winStart := s.now()
	for _, ev := range plan.window {
		if ev.kind == evCancel {
			ev.l.mu.Lock()
			ev.l.cutoff = winStart + int64(ev.at-cancelSlack)
			ev.l.mu.Unlock()
		}
	}
	s.winStart.Store(winStart)
	copies0, sinkCPU0 := s.copiesTotal.Load(), s.sinkCPU.Load()
	// From here the generator marks each channel's first window packet.
	in.gen.mu.Lock()
	in.gen.inWin = true
	in.gen.mu.Unlock()
	copiesNow := s.copiesTotal.Load
	cpus := sampleCPU(copiesNow)
	wall0 := time.Now()
	cl := in.play(plan.window, time.Duration(s.winStart.Load()))
	time.Sleep(time.Duration(seconds) * time.Second)
	cl.halt()
	in.gen.halt()
	for _, st := range s.streams {
		if st != nil {
			st.winLast.Store(st.head.Load())
		}
	}
	in.drain()
	cpuPer, cpuWhole := cpus.end(copiesNow)
	wall := time.Since(wall0)
	copies, sinkCPU := s.copiesTotal.Load()-copies0, s.sinkCPU.Load()-sinkCPU0
	rt1 := readRuntime()
	heapMB := peak.end()
	st1 := in.relay.Stats()
	shards := in.relay.ShardStats()
	in.relay.Stop()
	in.relayW.Wait()

	// The relay and every client have stopped: the sink state is final
	// and read without its locks from here on.
	ops := opsCount{}
	var tune samples
	var holes int64
	for _, l := range plan.listeners {
		if l.subSent == 0 {
			continue
		}
		ops.add("join", 1, 0)
		if !l.acked {
			ops.add("join", 0, 1)
			continue
		}
		holes += l.holes
		if want, missing := expectedCopies(l, s.streams[l.ch]); want > 0 {
			ops.add("copy", want, missing)
		}
		if l.window && l.tuneAt > 0 {
			tune = append(tune, float64(l.tuneAt-l.subSent))
		}
	}
	s.checkHoles(holes, st1.FanoutDropped+st1.DVREvictions)
	lastCopy := newSecondWindows()
	var ingressLast samples
	for _, st := range s.streams {
		if st == nil {
			continue
		}
		for seq := st.winFirst.Load(); seq <= st.winLast.Load(); seq++ {
			if lc := st.lastCopy[seq-1].Load(); lc > 0 {
				lastCopy.add(time.Duration(st.dataDue[seq-1]-s.winStart.Load()), float64(lc-st.dataDue[seq-1]))
				if traced && st.ingress[seq-1] > 0 {
					ingressLast = append(ingressLast, float64(lc-st.ingress[seq-1]))
				}
			}
		}
	}
	checkTiers(s, plan, out)

	winSec := wall.Seconds()
	out.ops = ops
	out.faults = append(out.faults, s.faults...)
	if copies == 0 {
		return fmt.Errorf("%s: no copies delivered in the window", name)
	}
	out.e2e("setup_s", setupTimes.quantile(0.5), "s")
	out.e2e("delivery_p50_ms", s.delivery.quantile(0.5)/1e6, "ms")
	// The tails follow the host's vCPU stalls more than the relay
	// (README.md, "End-to-end metrics"): reported per layer, unbounded.
	out.layer("relay.delivery_p99_ms", s.delivery.quantile(0.99)/1e6, "ms")
	out.e2e("last_copy_p50_ms", lastCopy.quantile(0.5)/1e6, "ms")
	out.e2e("cpu_ns_per_delivery", cpuPer, "ns")
	out.e2e("join_p50_ms", s.joinLat.quantile(0.5)/1e6, "ms")
	out.layer("relay.join_p99_ms", s.joinLat.all.quantile(0.99)/1e6, "ms")
	out.e2e("tune_in_p50_ms", tune.quantile(0.5)/1e6, "ms")
	out.e2e("max_rss_mb", maxRSSMB(), "MB")
	out.note("cpu_util", cpuWhole*float64(copies)/float64(wall))
	out.note("samples", map[string]any{
		"delivery_copies": s.delivery.all.n, "packets": len(lastCopy.all), "joins": len(s.joinLat.all),
		"tune_ins": len(tune), "setups": len(setupTimes),
	})
	out.note("setup_s_each", setupTimes)

	// Per-layer metrics.
	d := func(a, b int64) float64 { return float64(b - a) }
	qmax := 0
	for _, sh := range shards {
		if sh.MaxQueued > qmax {
			qmax = sh.MaxQueued
		}
	}
	out.layer("relay.ingress_to_copy_p50_us", s.ingressCopy.quantile(0.5)/1e3, "us")
	out.layer("relay.ingress_to_copy_p99_us", s.ingressCopy.quantile(0.99)/1e3, "us")
	out.layer("relay.ingress_to_last_copy_p50_ms", ingressLast.quantile(0.5)/1e6, "ms")
	out.layer("relay.queue_max", float64(qmax), "count")
	out.layer("relay.queue_drops", float64(st1.FanoutDropped), "count")
	out.layer("relay.copies_per_writebatch", ratio(d(st0.FanoutSent, st1.FanoutSent), d(st0.Batches, st1.Batches)), "count")
	out.layer("relay.deadline_flushes_per_s", d(st0.FlushDeadline, st1.FlushDeadline)/winSec, "1/s")
	admitted := d(st0.Subscribes+st0.Refreshes+st0.Unsubscribes, st1.Subscribes+st1.Refreshes+st1.Unsubscribes)
	out.layer("relay.admit_per_pass", ratio(admitted, d(st0.AdmitBatches, st1.AdmitBatches)), "count")
	out.layer("relay.admit_overflow", float64(st1.AdmitOverflow), "count")
	out.layer("relay.encodes_per_upstream_pkt", ratio(d(st0.TranscodeEncodes, st1.TranscodeEncodes), d(st0.UpstreamData, st1.UpstreamData)), "count")
	if in.auth != nil {
		out.layer("security.verify_ns_per_request", in.auth.verify.nsPerItem(), "ns")
		out.layer("security.sign_ns_per_ack", in.auth.sign.nsPerItem(), "ns")
		out.layer("security.requests_per_verify_call", in.auth.verify.itemsPerCall(), "count")
		out.selfTimeAdd("security", float64(in.auth.verify.ns.Load()+in.auth.sign.ns.Load()))
	}
	in.gen.mu.Lock()
	out.layer("bench.generator_lag_p99_ms", in.gen.lag.quantile(0.99)/1e6, "ms")
	in.gen.mu.Unlock()
	sinkItems := float64(s.copiesTotal.Load() + s.ctrlCopies.Load())
	out.layer("bench.sink_ns_per_delivery", ratio(float64(s.sinkNs.Load()), sinkItems), "ns")
	if traced {
		out.layer("bench.sink_cpu_ns_per_delivery", ratio(float64(s.sinkCPU.Load()), sinkItems), "ns")
		out.layer("bench.cpu_less_sink_ns_per_delivery", cpuWhole-ratio(float64(sinkCPU), float64(copies)), "ns")
	}
	out.selfTimeAdd("bench.sink", float64(s.sinkNs.Load()))
	rtLayers(out, rt0, rt1, float64(copies), winSec, heapMB)
	if traced {
		replayLayers(out, s, plan, cl.subsIn)
		if in.auth != nil {
			s.spans.merge(in.auth.log)
		}
		path, err := s.spans.write(name, seed)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		out.note("spans", path)
	}
	return nil
}

// checkHoles compares the copies missing between listeners' first and
// last copies with what the relay says it dropped: loss the relay
// accounts for is failed copies, loss it does not is an incorrect
// output.
func (s *sink) checkHoles(holes, dropped int64) {
	if holes > dropped {
		s.fault("%d copies missing between listeners' first and last copy, relay accounts for %d", holes, dropped)
	}
}

// drain waits, after the generator stopped, until every leased,
// uncancelled listener has its copy of each channel's last packet (or
// drainTimeout passes: anything still missing then is a failed copy).
func (in *instance) drain() {
	s := in.sink
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		done := true
		for _, l := range in.plan.listeners {
			l.mu.Lock()
			ok := l.subSent == 0 || l.cancelSent != 0 ||
				l.acked && l.haveData && l.lastSeq >= s.streams[l.ch].winLast.Load()
			l.mu.Unlock()
			if !ok {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGoroutines waits until at most n goroutines run, or timeout.
func waitGoroutines(n int, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtLayers reports the runtime layer over the window.
func rtLayers(out *output, a, b rtSnap, deliveries, winSec, heapMB float64) {
	out.layer("runtime.alloc_bytes_per_delivery", ratio(float64(b.allocBytes-a.allocBytes), deliveries), "B")
	out.layer("runtime.gc_cycles_per_s", float64(b.gcCycles-a.gcCycles)/winSec, "1/s")
	out.layer("runtime.gc_pause_p99_us", pauseQuantile(a, b, 0.99)*1e6, "us")
	out.layer("runtime.heap_peak_mb", heapMB, "MB")
}

// planListeners draws n listener addresses from a private /8 so every
// set-up of a run uses the same table.
func listenerAddr(i int) lan.Addr {
	return lan.Addr(fmt.Sprintf("10.%d.%d.%d:7000", 1+i/62500, (i/250)%250, 1+i%250))
}

func sortEvents(evs []event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
}
