package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/security"
)

// The in-process substrate shared by pa-broadcast and multiroom-churn:
// memConn is the relay's lan.Conn. Its Recv side is fed by the traffic
// generator (upstream packets stamped To = group) and the listener
// model (control requests stamped From = the listener's address); its
// WriteBatch side is the checking sink, which attributes every copy to
// the listener it is addressed to and checks it against the
// generator's own record of what was injected.

// streamRec is the generator's record of one channel. The generator
// fills entry seq-1 before it hands the packet to the relay, so the
// sink — which only ever sees a packet after the relay received it —
// reads a complete entry without locking.
type streamRec struct {
	ch      uint32
	epoch   uint32
	data    [][]byte
	dataDue []int64        // ns since the run's time base
	ingress []int64        // relay Recv hand-off (traced runs only)
	pushed  []atomic.Int64 // by when the packet was in the relay's inbound queue (0: not yet)
	ctl     [][]byte
	ctlDue  []int64
	head    atomic.Uint64 // highest data seq injected
	ctlHead atomic.Uint64

	// Written by the sink's concurrent WriteBatch calls.
	lastCopy []atomic.Int64 // latest live copy hand-off per data seq
	tierData [codec.NumProfiles][]atomic.Pointer[[]byte]
	tierCtl  [codec.NumProfiles][]atomic.Pointer[[]byte]

	// window is the data seq range injected inside the measurement
	// window: [winFirst, winLast]. The generator sets winFirst before it
	// injects the window's first packet (it is MaxUint64 until then), so
	// every copy of a window packet is counted; winLast is 0 while the
	// window is open.
	winFirst, winLast atomic.Uint64
}

func newStreamRec(ch, epoch uint32, maxData, maxCtl int) *streamRec {
	s := &streamRec{
		ch: ch, epoch: epoch,
		data: make([][]byte, maxData), dataDue: make([]int64, maxData),
		ingress: make([]int64, maxData), lastCopy: make([]atomic.Int64, maxData), pushed: make([]atomic.Int64, maxData),
		ctl: make([][]byte, maxCtl), ctlDue: make([]int64, maxCtl),
	}
	for p := codec.ProfileULaw; p.Valid(); p++ {
		s.tierData[p] = make([]atomic.Pointer[[]byte], maxData)
		s.tierCtl[p] = make([]atomic.Pointer[[]byte], maxCtl)
	}
	s.winFirst.Store(math.MaxUint64)
	return s
}

// firstDueAtOrAfter is the first data seq whose due time is >= t.
func (s *streamRec) firstDueAtOrAfter(t int64) uint64 {
	head := s.head.Load()
	lo, hi := uint64(1), head+1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.dataDue[mid-1] >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// listener is one modelled subscriber: its plan, what it sent, and what
// the sink saw arrive for it.
type listener struct {
	mu     *sync.Mutex // one of the sink's stripe locks
	addr   lan.Addr
	ch     uint32
	prof   codec.Profile
	signer *security.IdentityAuth // nil without control-plane auth
	window bool                   // its join counts in the join and tune-in metrics

	// Written by the client model before the request reaches the
	// relay; read by the sink afterwards.
	subSent   int64
	subPushed int64 // just before the Subscribe entered the inbound queue
	subSeq    uint32

	// Under mu.
	cancelSent int64
	// cutoff is set when the window opens, for a listener whose Cancel
	// is planned inside it: its planned send time less cancelSlack. Every
	// window packet due before it is an expected copy; none due after it
	// is counted, delivered or not.
	cutoff     int64
	acked      bool
	ackAt      int64
	haveData   bool
	firstSeq   uint64
	lastSeq    uint64
	haveCopy   bool
	haveCtl    bool
	lastCtlSeq uint64
	tuneAt     int64
	holes      int64
	winCopies  int64
}

// sink is the checking sink: the relay's WriteBatch lands here, from
// every shard worker at once. Like a kernel, which serialises nothing
// across destinations, it takes no lock across listeners: per-listener
// state sits behind one of sinkStripes stripe locks, packet records are
// atomics, and each batch folds its samples into the shared histograms
// under mu once, at its end.
type sink struct {
	base     time.Time
	streams  []*streamRec // indexed by channel id
	byAddr   map[lan.Addr]*listener
	winStart atomic.Int64 // ns; 0 until the window opens
	traced   bool
	spans    *spanLog // nil unless traced
	stripes  [sinkStripes]struct {
		sync.Mutex
		_ [56]byte // one stripe per cache line
	}

	copiesTotal atomic.Int64 // data copies delivered, any packet
	ctrlCopies  atomic.Int64
	acks        atomic.Int64  // granted SubAcks
	ackWant     atomic.Int64  // acks awaited by the set-up
	ackReached  chan struct{} // signalled when acks reaches ackWant
	sinkNs      atomic.Int64  // sink wall time, lock waits included (traced)
	sinkCPU     atomic.Int64  // sink thread CPU time (traced)

	mu          sync.Mutex
	delivery    windowed // live data copies of window packets, by due time
	ingressCopy hist     // relay Recv hand-off -> WriteBatch (traced)
	joinLat     windowedSamples

	faultMu sync.Mutex
	faults  []string
}

const sinkStripes = 256

// sinkAcc is one WriteBatch call's samples, folded into the sink's
// histograms under mu once per call.
type sinkAcc struct {
	lat     []latSample
	ingress []int64
	joins   []latSample
}

type latSample struct {
	at time.Duration // sub-window key
	v  int64
}

var accPool = sync.Pool{New: func() any { return &sinkAcc{} }}

func (s *sink) now() int64 { return int64(time.Since(s.base)) }

// fault records an incorrect output. Only the first few are kept, but
// any one of them makes the run incorrect.
func (s *sink) fault(format string, args ...any) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if len(s.faults) < 20 {
		s.faults = append(s.faults, fmt.Sprintf(format, args...))
	} else {
		s.faults[19] = "…and more"
	}
}

// writeBatch is the sink proper: one hand-off time for the whole batch.
func (s *sink) writeBatch(batch []lan.Datagram) {
	now := s.now()
	var cpu0 int64
	if s.traced {
		runtime.LockOSThread()
		cpu0 = threadCPU()
	}
	acc := accPool.Get().(*sinkAcc)
	for i := range batch {
		d := &batch[i]
		l := s.byAddr[d.To]
		if l == nil {
			s.fault("datagram to %s, which never subscribed", d.To)
			continue
		}
		t, ch, err := proto.PeekType(d.Data)
		if err != nil {
			s.fault("unparseable datagram to %s: %v", d.To, err)
			continue
		}
		l.mu.Lock()
		switch t {
		case proto.TypeSubAck:
			s.ack(l, d.Data, now, acc)
		case proto.TypeData, proto.TypeControl:
			s.copyOf(l, t, ch, d.Data, now, acc)
		default:
			s.fault("%s packet sent to listener %s", t, d.To)
		}
		l.mu.Unlock()
	}
	if len(acc.lat)+len(acc.joins) > 0 {
		s.mu.Lock()
		for _, x := range acc.lat {
			s.delivery.add(x.at, x.v)
		}
		for _, v := range acc.ingress {
			s.ingressCopy.add(v, 1)
		}
		for _, x := range acc.joins {
			s.joinLat.add(x.at, float64(x.v))
		}
		s.mu.Unlock()
	}
	acc.lat, acc.ingress, acc.joins = acc.lat[:0], acc.ingress[:0], acc.joins[:0]
	accPool.Put(acc)
	if s.traced {
		s.sinkCPU.Add(threadCPU() - cpu0)
		runtime.UnlockOSThread()
		end := s.now()
		s.sinkNs.Add(end - now)
		s.spans.add("lan.writebatch", packetID(batch[0].Data), now, end)
	}
}

// ack checks one SubAck: it must verify under the listener's own
// credential, answer the listener's request, grant OK, and grant a
// lease inside [MinLease, MaxLease].
func (s *sink) ack(l *listener, pkt []byte, now int64, acc *sinkAcc) {
	inner := pkt
	if l.signer != nil {
		var ok bool
		if inner, ok = l.signer.Verify(pkt); !ok {
			s.fault("SubAck to %s fails verification under its credential", l.addr)
			return
		}
	}
	a, err := proto.UnmarshalSubAck(inner)
	if err != nil {
		s.fault("malformed SubAck to %s: %v", l.addr, err)
		return
	}
	if l.acked || a.Seq != l.subSeq || a.Channel != l.ch {
		s.fault("SubAck to %s answers seq %d ch %d, asked seq %d ch %d (acked=%v)", l.addr, a.Seq, a.Channel, l.subSeq, l.ch, l.acked)
		return
	}
	lease := time.Duration(a.LeaseMs) * time.Millisecond
	if a.Status != proto.SubOK {
		s.fault("SubAck to %s refused: %s", l.addr, a.Status)
		return
	}
	// Every workload runs the relay's default MaxLease, as relayd does.
	if lease < relay.MinLease || lease > relay.DefaultMaxLease {
		s.fault("SubAck to %s grants %v, outside [%v, %v]", l.addr, lease, relay.MinLease, relay.DefaultMaxLease)
	}
	if codec.Profile(a.Profile) != l.prof {
		s.fault("SubAck to %s grants profile %d, asked %d", l.addr, a.Profile, l.prof)
	}
	if a.ShiftMs != 0 {
		s.fault("SubAck to %s grants a %d ms shift, asked none", l.addr, a.ShiftMs)
	}
	l.acked, l.ackAt = true, now
	if n := s.acks.Add(1); n == s.ackWant.Load() && s.ackReached != nil {
		select {
		case s.ackReached <- struct{}{}:
		default:
		}
	}
	if l.window {
		acc.joins = append(acc.joins, latSample{time.Duration(l.subSent - s.winStart.Load()), now - l.subSent})
	}
	if s.spans != nil {
		s.spans.add("client.join", fmt.Sprintf("%s/%d", l.addr, l.subSeq), l.subSent, now)
	}
}

// copyOf checks one Control or Data copy against the injection record
// and the listener's stream so far. Caller holds l.mu.
func (s *sink) copyOf(l *listener, t proto.PacketType, ch uint32, pkt []byte, now int64, acc *sinkAcc) {
	if len(pkt) < 20 {
		s.fault("short %s copy to %s", t, l.addr)
		return
	}
	epoch := binary.BigEndian.Uint32(pkt[8:12])
	seq := binary.BigEndian.Uint64(pkt[12:20])
	var st *streamRec
	if int(ch) < len(s.streams) {
		st = s.streams[ch]
	}
	if st == nil {
		s.fault("copy of foreign channel %d to %s", ch, l.addr)
		return
	}
	if l.subSent == 0 || (l.ch != 0 && l.ch != ch) {
		s.fault("copy of channel %d to %s, which holds no lease on it", ch, l.addr)
		return
	}
	isCtl := t == proto.TypeControl
	var due int64
	var src [][]byte
	if isCtl {
		if seq == 0 || seq > st.ctlHead.Load() {
			s.fault("control seq %d on ch %d was never injected", seq, ch)
			return
		}
		due, src = st.ctlDue[seq-1], st.ctl
	} else {
		if seq == 0 || seq > st.head.Load() {
			s.fault("data seq %d on ch %d was never injected", seq, ch)
			return
		}
		due, src = st.dataDue[seq-1], st.data
	}
	if l.cancelSent != 0 && due > l.cancelSent+int64(time.Second) {
		s.fault("copy of ch %d seq %d injected %v after %s cancelled", ch, seq, time.Duration(due-l.cancelSent), l.addr)
	}
	// Content: a source-tier copy is the injected packet byte for byte;
	// a tier copy carries the derived epoch and is identical across
	// every listener of that tier (its audio is checked after the run).
	if l.prof == codec.ProfileSource {
		if !bytes.Equal(pkt, src[seq-1]) {
			s.fault("%s copy ch %d seq %d to %s differs from what was injected", t, ch, seq, l.addr)
			return
		}
	} else {
		if want := st.epoch<<2 | uint32(l.prof); epoch != want {
			s.fault("%s copy ch %d seq %d to %s has epoch %d, tier %s wants %d", t, ch, seq, l.addr, epoch, l.prof, want)
			return
		}
		tier := st.tierData[l.prof]
		if isCtl {
			tier = st.tierCtl[l.prof]
		}
		first := tier[seq-1].Load()
		if first == nil {
			cp := append([]byte(nil), pkt...)
			if tier[seq-1].CompareAndSwap(nil, &cp) {
				first = &cp
			} else {
				first = tier[seq-1].Load()
			}
		}
		if !bytes.Equal(*first, pkt) {
			s.fault("%s tier copy ch %d seq %d to %s differs from another listener's", l.prof, ch, seq, l.addr)
			return
		}
	}
	if !l.haveCopy {
		l.haveCopy = true
		// A packet that sat whole in the relay's inbound queue before the
		// Subscribe entered it was fanned out before the relay could
		// know of the listener.
		if p := st.pushed[seq-1].Load(); !isCtl && p != 0 && p < l.subPushed {
			s.fault("live joiner %s got ch %d seq %d, queued %v before its Subscribe", l.addr, ch, seq, time.Duration(l.subPushed-p))
		}
	}
	if isCtl {
		s.ctrlCopies.Add(1)
		if l.haveCtl && seq <= l.lastCtlSeq {
			s.fault("control seq %d to %s after seq %d (duplicate or reordered)", seq, l.addr, l.lastCtlSeq)
			return
		}
		l.haveCtl, l.lastCtlSeq = true, seq
		return
	}
	if l.haveData {
		if seq <= l.lastSeq {
			s.fault("data seq %d to %s after seq %d (duplicate or reordered)", seq, l.addr, l.lastSeq)
			return
		}
		l.holes += int64(seq - l.lastSeq - 1)
	} else {
		l.haveData, l.firstSeq = true, seq
	}
	l.lastSeq = seq
	if l.haveCtl && l.tuneAt == 0 {
		l.tuneAt = now
	}
	s.copiesTotal.Add(1)
	if seq >= st.winFirst.Load() && (st.winLast.Load() == 0 || seq <= st.winLast.Load()) {
		winStart := s.winStart.Load()
		if l.cutoff == 0 || due < l.cutoff {
			l.winCopies++
		}
		acc.lat = append(acc.lat, latSample{time.Duration(due - winStart), now - due})
		for lc := &st.lastCopy[seq-1]; ; {
			old := lc.Load()
			if now <= old || lc.CompareAndSwap(old, now) {
				break
			}
		}
		if s.traced {
			acc.ingress = append(acc.ingress, now-st.ingress[seq-1])
		}
	}
}

// cancelSlack is how long before a listener's planned Cancel its
// expected copies end. A copy due just before the Cancel may rightly
// never arrive: the generator can push that packet after the Cancel,
// and the relay discards the queue of a subscriber it removes before
// its shard worker gathers it. The slack covers both, with room for
// the host's stalls; a relay that stops serving a listener earlier, or
// never serves it, still shows as failed copies.
const cancelSlack = 250 * time.Millisecond

// expectedCopies is how many window data copies listener l, leased on
// st's channel, was due and how many of them never arrived. They run
// from its first copy, or the first packet due after its grant, to the
// last window packet, or the last one due before its cutoff.
func expectedCopies(l *listener, st *streamRec) (want, missing int64) {
	start := st.firstDueAtOrAfter(l.ackAt)
	if l.haveData && l.firstSeq < start {
		start = l.firstSeq
	}
	lo, hi := st.winFirst.Load(), st.winLast.Load()
	if l.cutoff != 0 {
		hi = min(hi, st.firstDueAtOrAfter(l.cutoff)-1)
	}
	lo = max(lo, start)
	if hi < lo {
		return 0, 0
	}
	want = int64(hi - lo + 1)
	return want, max(want-l.winCopies, 0)
}

// memConn is the relay's connection in the in-process workloads.
type memConn struct {
	local  lan.Addr
	in     chan lan.Packet
	done   chan struct{}
	once   sync.Once
	sink   *sink
	group  lan.Addr
	traced bool
}

// inboundQueue bounds the packets waiting for the relay's receive loop.
// It holds a whole join wave plus the upstream packets that arrive
// while the relay fans out one packet to every listener, so the
// generator does not block in steady state; when it does, that shows as
// generator lag.
const inboundQueue = 8192

func newMemConn(local, group lan.Addr, s *sink) *memConn {
	return &memConn{
		local: local, group: group, sink: s,
		in: make(chan lan.Packet, inboundQueue), done: make(chan struct{}),
	}
}

func (c *memConn) LocalAddr() lan.Addr { return c.local }

func (c *memConn) Send(to lan.Addr, data []byte) error {
	_, err := c.WriteBatch([]lan.Datagram{{To: to, Data: data}})
	return err
}

func (c *memConn) WriteBatch(batch []lan.Datagram) (int, error) {
	select {
	case <-c.done:
		return 0, lan.ErrClosed
	default:
	}
	c.sink.writeBatch(batch)
	return len(batch), nil
}

func (c *memConn) Recv(timeout time.Duration) (lan.Packet, error) {
	var pkt lan.Packet
	select {
	case pkt = <-c.in:
	case <-c.done:
		return lan.Packet{}, lan.ErrClosed
	default:
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case pkt = <-c.in:
		case <-c.done:
			return lan.Packet{}, lan.ErrClosed
		case <-t.C:
			return lan.Packet{}, lan.ErrTimeout
		}
	}
	if c.traced && pkt.To == c.group {
		now := c.sink.now()
		if t, ch, err := proto.PeekType(pkt.Data); err == nil && t == proto.TypeData {
			if st := c.sink.streams[ch]; st != nil {
				st.ingress[binary.BigEndian.Uint64(pkt.Data[12:20])-1] = now
			}
		}
		c.sink.spans.add("relay.ingress", packetID(pkt.Data), now, now)
	}
	return pkt, nil
}

func (c *memConn) Join(lan.Addr) error  { return nil }
func (c *memConn) Leave(lan.Addr) error { return nil }
func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// push hands one packet to the relay's receive loop.
func (c *memConn) push(pkt lan.Packet) bool {
	select {
	case c.in <- pkt:
		return true
	case <-c.done:
		return false
	}
}
