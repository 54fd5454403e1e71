package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/rebroadcast"
	"repro/internal/relay"
	"repro/internal/speaker"
	"repro/internal/vad"
	"repro/internal/vclock"
)

// loopback-playout: real clock, real UDP on loopback. The program's own
// VAD and rebroadcaster play seeded position-coded CD-quality PCM onto
// a per-run multicast group as raw 1400-byte chunks; a relay built the
// way relayd builds it by default joins the group; one speaker leases
// from the relay and plays into its simulated DAC; a crowd of listeners
// is answered by one benchmark socket.
const (
	// lbSetupRuns set-ups per run: each one's crowd joins afresh, so a
	// run times 800 spread joins, in one sub-window per set-up.
	lbSetupRuns = 8
	crowdSize   = 300
	// crowdProbes of the crowd join after the set-up, spread over one
	// control interval: the join and tune-in samples. The rest join
	// in one burst during the set-up.
	crowdProbes = 100
	lbChunk     = 1400
	lbPosPeriod = 32000 // position code period, in frames
	// controlTimeout bounds the wait for a stream's next Control: two of
	// the rebroadcaster's control intervals.
	controlTimeout = 2 * rebroadcast.DefaultControlInterval
)

// lbPkt is one packet the rebroadcaster sent, as the producer's
// connection saw it leave.
type lbPkt struct {
	data []byte
	sent int64 // wall ns at Send
}

// prodConn is the producer's connection: it records every packet the
// rebroadcaster sends (the checks' ground truth and the delivery
// metrics' start time) and, traced, times each Send.
type prodConn struct {
	lan.Conn
	lb     *loopback
	traced bool
}

func (c *prodConn) Send(to lan.Addr, data []byte) error {
	start := time.Now()
	c.lb.recordSend(data, start.UnixNano())
	err := c.Conn.Send(to, data)
	if c.traced {
		d := time.Since(start)
		c.lb.sendStats.record(1, int64(d))
		at := c.lb.spans.now()
		c.lb.spans.add("producer.send", packetID(data), at-int64(d), at)
	}
	return err
}

// member is one crowd listener.
type member struct {
	ip        net.IP
	probe     bool // joins after the set-up; its join and tune-in are timed
	subSent   int64
	acked     bool
	haveCtl   bool
	lastCtl   uint64
	haveData  bool
	firstSeq  uint64
	lastSeq   uint64
	tuneAt    int64
	holes     int64
	winCopies int64
}

type loopback struct {
	seed   int64
	traced bool
	spans  *spanLog // nil unless traced
	group  lan.Addr
	sock   *crowdSock

	mu        sync.Mutex
	data      []lbPkt // by data seq-1
	ctl       []lbPkt // by control seq-1
	ctlOffset int64   // wall ns at Send minus the Control's producer clock
	pacing    hist    // window Data sends vs schedule
	sendStats callStats

	members  []*member
	byDst    map[uint32]*member
	relayKey string // current relay's source address; older relays' datagrams are stale
	faults   []string

	winFirst, winLast uint64
	inWin             bool
	delivery          windowed // by producer Send time in the window
	winStartNs        int64
	lastCopy          map[uint64]int64
	joinLat           windowedSamples // probe joins, one sub-window per set-up
	setupIdx          int
	tune              samples
	copies            int64
	mcastHop          hist
	unicastHop        hist
	wrEnd             map[uint64]int64 // traced: (member, seq) -> WriteBatch return
	ingress           map[uint64]int64 // traced: seq -> relay Recv hand-off
	ingressCopy       hist
	ingressLast       map[uint64]int64
	readerNs          int64
	joinsSent         int64
	readerCPU         int64 // traced: the reader thread's CPU time in arrival
	stale             int64
	sockDrops         uint32 // the crowd socket's own receive-buffer drops so far
}

func (lb *loopback) fault(format string, args ...any) {
	if len(lb.faults) < 20 {
		lb.faults = append(lb.faults, fmt.Sprintf(format, args...))
	}
}

// recordSend keeps the producer's packet by (type, seq) and, for Data,
// its pacing lag against the schedule the last Control's producer
// clock implies.
func (lb *loopback) recordSend(data []byte, at int64) {
	t, _, err := proto.PeekType(data)
	if err != nil || len(data) < 20 {
		return
	}
	seq := binary.BigEndian.Uint64(data[12:20])
	lb.mu.Lock()
	defer lb.mu.Unlock()
	p := lbPkt{data: append([]byte(nil), data...), sent: at}
	switch t {
	case proto.TypeControl:
		for uint64(len(lb.ctl)) < seq {
			lb.ctl = append(lb.ctl, lbPkt{})
		}
		lb.ctl[seq-1] = p
		if c, err := proto.UnmarshalControl(data); err == nil {
			lb.ctlOffset = at - c.Producer
		}
	case proto.TypeData:
		for uint64(len(lb.data)) < seq {
			lb.data = append(lb.data, lbPkt{})
		}
		lb.data[seq-1] = p
		if lb.inWin && lb.ctlOffset != 0 {
			playAt := int64(binary.BigEndian.Uint64(data[20:28]))
			sched := lb.ctlOffset + playAt - int64(rebroadcast.DefaultLead) - int64(rebroadcast.DefaultLead/2)
			lb.pacing.add(at-sched, 1)
		}
	}
}

// reader is the crowd's receive loop; it runs until the socket closes.
func (lb *loopback) reader(done chan<- struct{}) {
	defer close(done)
	if lb.traced {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	buf := make([]byte, 2048)
	oob := make([]byte, 256)
	for {
		n, from, dst, at, err := lb.sock.recv(buf, oob)
		if err != nil {
			return
		}
		t0 := time.Now()
		var cpu0 int64
		if lb.traced {
			cpu0 = threadCPU()
		}
		lb.mu.Lock()
		lb.sockDrops = lb.sock.overflow
		if from.String() == lb.relayKey {
			lb.arrival(buf[:n], dst, at.UnixNano(), t0.UnixNano())
		} else {
			// From the relay of an earlier, stopped set-up.
			lb.stale++
		}
		lb.readerNs += int64(time.Since(t0))
		if lb.traced {
			lb.readerCPU += threadCPU() - cpu0
		}
		lb.mu.Unlock()
	}
}

// arrival checks one datagram the crowd socket received: at is the
// kernel's arrival stamp, readAt when the crowd's read returned it.
// Caller holds lb.mu.
func (lb *loopback) arrival(pkt []byte, dst uint32, at, readAt int64) {
	t, ch, err := proto.PeekType(pkt)
	if err != nil {
		lb.fault("unparseable datagram to %08x: %v", dst, err)
		return
	}
	m := lb.byDst[dst]
	if m == nil {
		lb.fault("datagram to %08x, which is no crowd member", dst)
		return
	}
	if t == proto.TypeSubAck {
		a, err := proto.UnmarshalSubAck(pkt)
		switch {
		case err != nil:
			lb.fault("malformed SubAck to %s: %v", m.ip, err)
		case m.acked:
			lb.fault("second SubAck to %s", m.ip)
		case a.Status != proto.SubOK || a.Seq != 1 || a.Channel != 1:
			lb.fault("SubAck to %s: status %s seq %d ch %d", m.ip, a.Status, a.Seq, a.Channel)
		case time.Duration(a.LeaseMs)*time.Millisecond < relay.MinLease || time.Duration(a.LeaseMs)*time.Millisecond > relay.DefaultMaxLease:
			lb.fault("SubAck to %s grants %d ms, outside [MinLease, MaxLease]", m.ip, a.LeaseMs)
		default:
			m.acked = true
			if m.probe {
				lb.joinLat.add(time.Duration(lb.setupIdx), float64(at-m.subSent))
			}
		}
		return
	}
	if t != proto.TypeData && t != proto.TypeControl || len(pkt) < 20 {
		lb.fault("%s packet to crowd member %s", t, m.ip)
		return
	}
	if !m.acked && m.subSent == 0 {
		lb.fault("copy to %s, which holds no lease", m.ip)
		return
	}
	if ch != 1 {
		lb.fault("copy of foreign channel %d to %s", ch, m.ip)
		return
	}
	seq := binary.BigEndian.Uint64(pkt[12:20])
	src := lb.data
	if t == proto.TypeControl {
		src = lb.ctl
	}
	if seq == 0 || seq > uint64(len(src)) || src[seq-1].data == nil {
		lb.fault("%s seq %d to %s was never sent by the producer", t, seq, m.ip)
		return
	}
	p := src[seq-1]
	if !bytes.Equal(pkt, p.data) {
		lb.fault("%s seq %d to %s differs from what the producer sent", t, seq, m.ip)
		return
	}
	if p.sent < m.subSent-int64(relayProcessing) && !m.haveData && !m.haveCtl {
		lb.fault("%s seq %d to %s was sent %v before its Subscribe", t, seq, m.ip, time.Duration(m.subSent-p.sent))
	}
	if t == proto.TypeControl {
		if m.haveCtl && seq <= m.lastCtl {
			lb.fault("control seq %d to %s after %d (duplicate or reordered)", seq, m.ip, m.lastCtl)
			return
		}
		m.haveCtl, m.lastCtl = true, seq
		return
	}
	if m.haveData {
		if seq <= m.lastSeq {
			lb.fault("data seq %d to %s after %d (duplicate or reordered)", seq, m.ip, m.lastSeq)
			return
		}
		m.holes += int64(seq - m.lastSeq - 1)
	} else {
		m.haveData, m.firstSeq = true, seq
	}
	m.lastSeq = seq
	if m.haveCtl && m.tuneAt == 0 {
		m.tuneAt = at
		if m.probe {
			lb.tune = append(lb.tune, float64(at-m.subSent))
		}
	}
	lb.copies++
	if lb.spans != nil {
		base := lb.spans.base.UnixNano()
		lb.spans.add("crowd.arrival", fmt.Sprintf("%s/%s", m.ip, packetID(pkt)), at-base, readAt-base)
	}
	if lb.inWin && seq >= lb.winFirst && (lb.winLast == 0 || seq <= lb.winLast) {
		m.winCopies++
		lb.delivery.add(time.Duration(p.sent-lb.winStartNs), at-p.sent)
		if at > lb.lastCopy[seq] {
			lb.lastCopy[seq] = at
		}
		if lb.traced {
			key := uint64(ip4u(m.ip))<<32 | seq
			if end, ok := lb.wrEnd[key]; ok {
				lb.unicastHop.add(readAt-end, 1)
				delete(lb.wrEnd, key)
			}
		}
	}
}

// relayProcessing bounds how long a packet the producer sent before a
// Subscribe can still be in flight to the relay: such a packet may
// legitimately reach a listener whose Subscribe was admitted first.
const relayProcessing = 50 * time.Millisecond

// playCheck follows the speaker's DAC: its non-silent samples are
// position-coded, so they must form one contiguous run of the source.
type playCheck struct {
	spans    *spanLog // nil unless traced
	mu       sync.Mutex
	next     int
	frames   int64
	splices  int64
	corrupt  int64
	firstAt  time.Time
	silentAt int64
}

func (p *playCheck) block(b audiodev.PlayedBlock) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i+4 <= len(b.Data); i += 4 {
		l := int(int16(binary.LittleEndian.Uint16(b.Data[i:])))
		r := int(int16(binary.LittleEndian.Uint16(b.Data[i+2:])))
		if l == 0 && r == 0 {
			continue
		}
		if r != -l || l < 1 || l > lbPosPeriod {
			p.corrupt++
			continue
		}
		if p.firstAt.IsZero() {
			p.firstAt = b.Time
		}
		if p.spans != nil && (i == 0 || p.next == 0) {
			at := b.Time.Sub(p.spans.base)
			p.spans.add("speaker.play", fmt.Sprintf("pos/%d", l), int64(at), int64(at))
		}
		if p.next != 0 && l != p.next {
			p.splices++
		}
		p.frames++
		p.next = l%lbPosPeriod + 1
	}
}

// lbSource writes seeded position-coded CD audio into the VAD's slave
// device until the device closes.
func lbSource(dev *audiodev.Device, seed int64) {
	if err := dev.Open(audio.CDQuality); err != nil {
		return
	}
	pos := int(uint64(seed) % lbPosPeriod)
	buf := make([]byte, 4*1764)
	for {
		for i := 0; i < len(buf); i += 4 {
			v := int16(pos%lbPosPeriod + 1)
			binary.LittleEndian.PutUint16(buf[i:], uint16(v))
			binary.LittleEndian.PutUint16(buf[i+2:], uint16(-v))
			pos++
		}
		if _, err := dev.Write(buf); err != nil {
			return
		}
	}
}

// lbSetup is one relay + speaker set-up.
type lbSetup struct {
	relay  *relay.Relay
	relayW sync.WaitGroup
	conn   *tracedConn
	spk    *speaker.Speaker
	spkW   sync.WaitGroup
	play   *playCheck
	dst    *net.UDPAddr // the relay's listen address
	built  time.Time    // just before relay.New: set-up time runs from here
	subAt  time.Time    // just before speaker.New
}

func (s *lbSetup) stop() {
	s.spk.Stop()
	s.spkW.Wait()
	s.relay.Stop()
	s.relayW.Wait()
}

func runLoopback(seed int64, seconds int, traced bool, size float64, out *output) error {
	sock, err := openCrowdSock()
	if err != nil {
		return err
	}
	defer sock.c.Close()
	// The group and its port are picked per run, not per seed: they are
	// addresses, not inputs. The port is one the kernel just handed out
	// and nothing else on this host listens on: a subscriber listening
	// on the group's port would receive the relay's group traffic loop.
	pick := rand.New(rand.NewSource(time.Now().UnixNano()))
	gip := net.IPv4(239, byte(100+pick.Intn(100)), byte(pick.Intn(256)), byte(1+pick.Intn(254)))
	probe, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return err
	}
	gport := probe.LocalAddr().(*net.UDPAddr).Port
	probe.Close()
	lb := &loopback{
		seed: seed, traced: traced, sock: sock,
		group: lan.Addr(net.JoinHostPort(gip.String(), strconv.Itoa(gport))),
		byDst: map[uint32]*member{}, lastCopy: map[uint64]int64{},
		wrEnd: map[uint64]int64{}, ingress: map[uint64]int64{}, ingressLast: map[uint64]int64{},
		delivery: newCopyWindows(), joinLat: windowedSamples{width: 1, min: minPerSec},
	}
	if traced {
		lb.spans = &spanLog{base: time.Now()}
	}
	crowd, probes := scaled(crowdSize, size), scaled(crowdProbes, size)
	for i := 0; i < crowd; i++ {
		ip := net.IPv4(127, 1, byte(i/250), byte(1+i%250))
		m := &member{ip: ip, probe: i >= crowd-probes}
		lb.members = append(lb.members, m)
		lb.byDst[ip4u(ip)] = m
	}
	readerDone := make(chan struct{})
	go lb.reader(readerDone)
	defer func() {
		sock.c.Close()
		<-readerDone
	}()

	// Producer: VAD + rebroadcaster on the real clock.
	udp := &lan.UDPNetwork{}
	pc, err := udp.Attach("0.0.0.0:0")
	if err != nil {
		return err
	}
	v := vad.New(vclock.System, vad.Config{})
	rb, err := rebroadcast.New(vclock.System, &prodConn{Conn: pc, lb: lb, traced: traced},
		rebroadcast.Config{ID: 1, Name: "bench", Group: lb.group, Codec: "raw", ChunkBytes: lbChunk})
	if err != nil {
		return err
	}
	var prodW sync.WaitGroup
	prodW.Add(2)
	go func() { defer prodW.Done(); rb.Run(v.Master()) }()
	go func() { defer prodW.Done(); lbSource(v.Slave(), seed) }()
	defer func() {
		rb.Stop()
		v.Close()
		prodW.Wait()
		pc.Close()
	}()
	var setups samples
	var cur *lbSetup
	for k := 0; k < lbSetupRuns; k++ {
		lb.mu.Lock()
		lb.setupIdx = k
		lb.mu.Unlock()
		s, err := lb.setup(udp, traced)
		if err != nil {
			return err
		}
		if !waitFor(setupTimeout, func() bool {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			for _, m := range lb.members {
				if !m.acked && !m.probe {
					return false
				}
			}
			return s.spk.Stats().RelaySubAcks > 0
		}) {
			s.stop()
			if s.relay.Stats().UpstreamData == 0 {
				return fmt.Errorf("multicast loopback unavailable: nothing the producer sent to %s reached the relay within %v", lb.group, setupTimeout)
			}
			return fmt.Errorf("loopback-playout: set-up %d: crowd and speaker not all leased within %v (%d crowd unleased, speaker %+v, relay %+v)",
				k, setupTimeout, lb.unackedLocked(), s.spk.Stats(), s.relay.Stats())
		}
		setups = append(setups, time.Since(s.built).Seconds())
		if err := lb.joinProbes(s); err != nil {
			s.stop()
			return err
		}
		if k < lbSetupRuns-1 {
			s.stop()
			debug.FreeOSMemory()
			continue
		}
		cur = s
	}
	// Warm-up stays outside the window: the speaker must be playing.
	if !waitFor(5*time.Second, func() bool {
		cur.play.mu.Lock()
		defer cur.play.mu.Unlock()
		return !cur.play.firstAt.IsZero()
	}) {
		cur.stop()
		return fmt.Errorf("loopback-playout: the speaker played nothing within 5s of its lease")
	}

	rt0 := readRuntime()
	peak := startHeapPeak()
	st0 := cur.relay.Stats()
	sp0 := cur.spk.Stats()
	rs0 := cur.conn.RecvBatchStats()
	cur.play.mu.Lock()
	splices0, corrupt0 := cur.play.splices, cur.play.corrupt
	cur.play.mu.Unlock()
	lb.mu.Lock()
	lb.winFirst = uint64(len(lb.data)) + 1
	drops0 := lb.sockDrops
	lb.winStartNs = time.Now().UnixNano()
	lb.inWin = true
	copies0 := lb.copies
	reader0, readerCPU0 := lb.readerNs, lb.readerCPU
	lb.mu.Unlock()
	deliveredNow := func() int64 {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		return lb.copies
	}
	cpus := sampleCPU(deliveredNow)
	wall0 := time.Now()
	time.Sleep(time.Duration(seconds) * time.Second)
	lb.mu.Lock()
	lb.winLast = uint64(len(lb.data))
	lb.mu.Unlock()
	// Drain: every member's copy of the window's last packet.
	waitFor(drainTimeout, func() bool {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		for _, m := range lb.members {
			if m.lastSeq < lb.winLast {
				return false
			}
		}
		return true
	})
	cpuPer, cpuWhole := cpus.end(deliveredNow)
	wall := time.Since(wall0)
	sp1 := cur.spk.Stats()
	st1 := cur.relay.Stats()
	rs1 := cur.conn.RecvBatchStats()
	shards := cur.relay.ShardStats()
	rt1 := readRuntime()
	heapMB := peak.end()
	cur.stop()
	cur.play.mu.Lock()
	splices, corrupt, frames, firstAt := cur.play.splices, cur.play.corrupt, cur.play.frames, cur.play.firstAt
	cur.play.mu.Unlock()

	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.inWin = false
	ops := opsCount{}
	ops.add("join", lb.joinsSent, lb.unacked())
	var holes, want, missing int64
	for _, m := range lb.members {
		holes += m.holes
		lo := lb.winFirst
		if m.firstSeq > lo {
			lb.fault("crowd member %s's first copy is seq %d, after the window opened at %d", m.ip, m.firstSeq, lo)
		}
		w := int64(lb.winLast - lo + 1)
		want += w
		if miss := w - m.winCopies; miss > 0 {
			missing += miss
		}
	}
	// Copies the crowd socket itself dropped, its buffer full while the
	// host stalled its reader, are neither delivered nor lost by the
	// program: they leave the count on both sides.
	own := int64(lb.sockDrops - drops0)
	out.note("crowd_socket_drops", own)
	if missing -= own; missing < 0 {
		missing = 0
	}
	ops.add("copy", want-own, missing)
	if holes > st1.FanoutDropped {
		// Loss the relay does not account for happened on the substrate:
		// failed copies (counted above), not incorrect ones.
		out.note("substrate_lost", holes-st1.FanoutDropped)
	}
	// A batch the speaker discarded as late or padded over as a gap is
	// the §3.2 schedule absorbing a stall on the host, and comes and goes
	// with it; it is reported per layer, not counted as a failed
	// operation. A splice the speaker's own counters do not account for
	// is an incorrect output.
	spPkts := sp1.DataPackets - sp0.DataPackets
	spSkips := (sp1.DroppedLate - sp0.DroppedLate) + (sp1.GapFills - sp0.GapFills)
	if corrupt > corrupt0 || splices-splices0 > spSkips {
		lb.fault("speaker played %d spliced and %d corrupt frames in the window (%d late or gap-filled batches)",
			splices-splices0, corrupt-corrupt0, spSkips)
	}
	if frames == 0 {
		lb.fault("speaker played no source audio")
	}
	copies := lb.copies - copies0
	if copies == 0 {
		return fmt.Errorf("loopback-playout: no copies arrived in the window")
	}
	var ingressLast samples
	lastCopy := newSecondWindows()
	for seq := lb.winFirst; seq <= lb.winLast; seq++ {
		if lc, ok := lb.lastCopy[seq]; ok {
			lastCopy.add(time.Duration(lb.data[seq-1].sent-lb.winStartNs), float64(lc-lb.data[seq-1].sent))
		}
		if traced {
			if il, ok := lb.ingressLast[seq]; ok {
				ingressLast = append(ingressLast, float64(il-lb.ingress[seq]))
			}
		}
	}
	out.ops = ops
	out.faults = append(out.faults, lb.faults...)
	winSec := wall.Seconds()
	out.e2e("setup_s", setups.quantile(0.5), "s")
	out.e2e("delivery_p50_ms", lb.delivery.quantile(0.5)/1e6, "ms")
	out.layer("relay.delivery_p99_ms", lb.delivery.quantile(0.99)/1e6, "ms")
	out.e2e("last_copy_p50_ms", lastCopy.quantile(0.5)/1e6, "ms")
	out.e2e("cpu_ns_per_delivery", cpuPer, "ns")
	out.e2e("join_p50_ms", lb.joinLat.quantile(0.5)/1e6, "ms")
	out.layer("relay.join_p99_ms", lb.joinLat.all.quantile(0.99)/1e6, "ms")
	out.e2e("tune_in_p50_ms", lb.tune.quantile(0.5)/1e6, "ms")
	out.e2e("max_rss_mb", maxRSSMB(), "MB")
	out.note("cpu_util", cpuWhole*float64(copies)/float64(wall))
	out.note("samples", map[string]any{
		"delivery_copies": lb.delivery.all.n, "packets": len(lastCopy.all), "joins": len(lb.joinLat.all),
		"tune_ins": len(lb.tune), "setups": len(setups), "stale_acks": lb.stale,
	})
	out.note("setup_s_each", setups)

	d := func(a, b int64) float64 { return float64(b - a) }
	qmax := 0
	for _, sh := range shards {
		if sh.MaxQueued > qmax {
			qmax = sh.MaxQueued
		}
	}
	out.layer("relay.ingress_to_copy_p50_us", lb.ingressCopy.quantile(0.5)/1e3, "us")
	out.layer("relay.ingress_to_copy_p99_us", lb.ingressCopy.quantile(0.99)/1e3, "us")
	out.layer("relay.ingress_to_last_copy_p50_ms", ingressLast.quantile(0.5)/1e6, "ms")
	out.layer("relay.queue_max", float64(qmax), "count")
	out.layer("relay.queue_drops", float64(st1.FanoutDropped), "count")
	out.layer("relay.copies_per_writebatch", ratio(d(st0.FanoutSent, st1.FanoutSent), d(st0.Batches, st1.Batches)), "count")
	out.layer("relay.deadline_flushes_per_s", d(st0.FlushDeadline, st1.FlushDeadline)/winSec, "1/s")
	out.layer("relay.admit_overflow", float64(st1.AdmitOverflow), "count")
	out.layer("lan.writebatch_ns_per_datagram", cur.conn.t.writeBatch.nsPerItem(), "ns")
	out.layer("lan.send_ns_per_packet", lb.sendStats.nsPerItem(), "ns")
	out.layer("lan.recv_per_batch", ratio(d(rs0.Packets, rs1.Packets), d(rs0.Batches, rs1.Batches)), "count")
	out.layer("lan.multicast_hop_p50_us", lb.mcastHop.quantile(0.5)/1e3, "us")
	out.layer("lan.unicast_hop_p50_us", lb.unicastHop.quantile(0.5)/1e3, "us")
	out.layer("speaker.first_play_ms", float64(firstAt.Sub(cur.subAt))/1e6, "ms")
	out.layer("speaker.late_batches", float64(sp1.DroppedLate-sp0.DroppedLate), "count")
	out.layer("speaker.gap_fills", float64(sp1.GapFills-sp0.GapFills), "count")
	out.layer("rebroadcast.pacing_lag_p99_ms", lb.pacing.quantile(0.99)/1e6, "ms")
	// The loopback workload's generator is the program's own
	// rebroadcaster, so its lateness is the pacing lag.
	out.layer("bench.generator_lag_p99_ms", lb.pacing.quantile(0.99)/1e6, "ms")
	out.layer("bench.sink_ns_per_delivery", ratio(float64(lb.readerNs-reader0), float64(copies)), "ns")
	if traced {
		sinkCPU := float64(lb.readerCPU - readerCPU0)
		out.layer("bench.sink_cpu_ns_per_delivery", ratio(sinkCPU, float64(copies)), "ns")
		out.layer("bench.cpu_less_sink_ns_per_delivery", cpuWhole-ratio(sinkCPU, float64(copies)), "ns")
	}
	out.selfTimeAdd("bench.crowd_reader", float64(lb.readerNs-reader0))
	out.selfTimeAdd("lan.writebatch", float64(cur.conn.t.writeBatch.ns.Load()))
	out.selfTimeAdd("lan.producer_send", float64(lb.sendStats.ns.Load()))
	if traced {
		path, err := lb.spans.write("loopback-playout", seed)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		out.note("spans", path)
	}
	rtLayers(out, rt0, rt1, float64(copies+spPkts), winSec, heapMB)
	return nil
}

func (lb *loopback) unackedLocked() int64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.unacked()
}

func (lb *loopback) unacked() int64 {
	var n int64
	for _, m := range lb.members {
		if !m.acked {
			n++
		}
	}
	return n
}

// setup builds one relay and speaker and sends the crowd's Subscribes.
func (lb *loopback) setup(udp *lan.UDPNetwork, traced bool) (*lbSetup, error) {
	s := &lbSetup{play: &playCheck{spans: lb.spans}}
	rc, err := udp.Attach("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ct := &connTrace{}
	if traced {
		ct.log = lb.spans
		ct.onRecv = lb.onRelayRecv
		ct.onWrite = lb.onRelayWrite
	}
	s.conn = wrapConn(rc, ct)
	var conn lan.Conn = rc
	if traced {
		conn = s.conn
	}
	lb.mu.Lock()
	for _, m := range lb.members {
		*m = member{ip: m.ip, probe: m.probe}
	}
	lb.relayKey = string(rc.LocalAddr())
	lb.mu.Unlock()
	if s.dst, err = net.ResolveUDPAddr("udp4", string(rc.LocalAddr())); err != nil {
		rc.Close()
		return nil, err
	}

	runtime.GC() // as in the in-process set-ups
	s.built = time.Now()
	r, err := relay.New(vclock.System, conn, relay.Config{Group: lb.group})
	if err != nil {
		rc.Close()
		return nil, err
	}
	s.relay = r
	s.relayW.Add(1)
	go func() { defer s.relayW.Done(); r.Run() }()
	// The speaker starts first, so its start-up overlaps the crowd's
	// joins, which go out in one burst, as fast as the socket sends
	// them (far fewer than the relay's admission queue holds).
	s.subAt = time.Now()
	spk, err := speaker.New(vclock.System, udp, speaker.Config{
		Name: "bench", Local: "127.0.0.1:0", Group: rc.LocalAddr(), Channel: 1,
	})
	if err != nil {
		s.relay.Stop()
		s.relayW.Wait()
		return nil, err
	}
	spk.OnPlay(s.play.block)
	s.spk = spk
	s.spkW.Add(1)
	go func() { defer s.spkW.Done(); spk.Run() }()
	for _, m := range lb.members {
		if m.probe {
			continue
		}
		if err := lb.subscribe(m, s.dst); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

var crowdSub, _ = (&proto.Subscribe{Channel: 1, Seq: 1, LeaseMs: 60_000}).Marshal()

// subscribe sends member m's Subscribe to the relay at dst.
func (lb *loopback) subscribe(m *member, dst *net.UDPAddr) error {
	lb.mu.Lock()
	m.subSent = time.Now().UnixNano()
	lb.joinsSent++
	lb.mu.Unlock()
	if err := lb.sock.sendFrom(m.ip, dst, crowdSub); err != nil {
		return fmt.Errorf("crowd subscribe from %s: %w", m.ip, err)
	}
	return nil
}

// joinProbes joins the crowd's probes after a set-up, spread over one
// control interval, one per equal slot at a seeded offset, so their
// phase against the Control cadence covers it evenly; then it waits
// until every probe has tuned in, so that none that joined after the
// set-up's last Control drops out of the tune-in sample.
func (lb *loopback) joinProbes(s *lbSetup) error {
	var probes []*member
	for _, m := range lb.members {
		if m.probe {
			probes = append(probes, m)
		}
	}
	rng := rand.New(rand.NewSource(lb.seed))
	slot := rebroadcast.DefaultControlInterval / time.Duration(len(probes))
	origin := time.Now()
	for i, m := range probes {
		time.Sleep(time.Until(origin.Add(time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot))))))
		if err := lb.subscribe(m, s.dst); err != nil {
			return err
		}
	}
	if waitFor(controlTimeout, func() bool {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		for _, m := range probes {
			if m.tuneAt == 0 {
				return false
			}
		}
		return true
	}) {
		return nil
	}
	if s.relay.Stats().UpstreamData == 0 {
		return fmt.Errorf("multicast loopback unavailable: nothing the producer sent to %s reached the relay", lb.group)
	}
	return fmt.Errorf("loopback-playout: probes not all tuned in %v after their joins", controlTimeout)
}

// onRelayRecv (traced) stamps the relay's receive hand-off per data seq.
func (lb *loopback) onRelayRecv(pkt lan.Packet, at int64) {
	if pkt.To != lb.group {
		return
	}
	if t, _, err := proto.PeekType(pkt.Data); err == nil && t == proto.TypeData && len(pkt.Data) >= 20 {
		now := time.Now().UnixNano()
		seq := binary.BigEndian.Uint64(pkt.Data[12:20])
		lb.mu.Lock()
		lb.ingress[seq] = now
		if lb.inWin && seq <= uint64(len(lb.data)) {
			// The multicast hop: producer Send -> relay Recv hand-off.
			lb.mcastHop.add(now-lb.data[seq-1].sent, 1)
		}
		lb.mu.Unlock()
	}
}

// onRelayWrite (traced) prices the relay's hop to the crowd: the
// WriteBatch call carrying each copy, and its return.
func (lb *loopback) onRelayWrite(batch []lan.Datagram, start, end int64) {
	now := time.Now().UnixNano()
	began := now - (end - start)
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, d := range batch {
		if t, _, err := proto.PeekType(d.Data); err != nil || t != proto.TypeData || len(d.Data) < 20 {
			continue
		}
		seq := binary.BigEndian.Uint64(d.Data[12:20])
		if in, ok := lb.ingress[seq]; ok && lb.inWin {
			lb.ingressCopy.add(began-in, 1)
			if began > lb.ingressLast[seq] {
				lb.ingressLast[seq] = began
			}
		}
		if ip := net.ParseIP(d.To.Host()); ip != nil && ip.To4() != nil && lb.inWin {
			lb.wrEnd[uint64(ip4u(ip))<<32|seq] = now
		}
	}
}

// waitFor polls cond every 200 µs until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		// Fine enough to time a set-up's last lease to a fraction of a
		// millisecond.
		time.Sleep(200 * time.Microsecond)
	}
	return cond()
}
