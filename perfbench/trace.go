package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lan"
	"repro/internal/proto"
	"repro/internal/security"
)

// Tracing from outside the program: wrappers around the values the
// benchmark hands the program (its authenticator and its connections)
// time every call into them and record spans. A wrapper forwards every
// optional interface the wrapped value implements — and only those — so
// the program takes the same path traced or not.

// span is one timed boundary crossing. ID ties spans of one packet,
// (channel, seq), or of one control request, (listener, seq).
type span struct {
	Name  string
	ID    string
	Start int64 // ns since the run's time base
	End   int64
}

// spanLog keeps spans in memory until the run ends. It caps what it
// keeps so a long traced run stays bounded; the per-layer metrics come
// from counters and histograms that see every call.
type spanLog struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

const maxSpans = 200_000

func (l *spanLog) add(name, id string, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{name, id, start, end})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// merge moves o's spans into l.
func (l *spanLog) merge(o *spanLog) {
	if l == nil || o == nil || l == o {
		return
	}
	o.mu.Lock()
	spans, dropped := o.spans, o.dropped
	o.spans, o.dropped = nil, 0
	o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		if len(l.spans) < maxSpans {
			l.spans = append(l.spans, s)
		} else {
			l.dropped++
		}
	}
	l.dropped += dropped
}

// write stores the spans as tab-separated lines under .bench_build/traces.
func (l *spanLog) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# span\tid\tstart_ns\tend_ns (kept %d, dropped %d)\n", len(l.spans), l.dropped)
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\n", s.Name, s.ID, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// callStats accumulates the time spent inside one wrapped interface.
type callStats struct {
	calls atomic.Int64
	items atomic.Int64
	ns    atomic.Int64
}

func (c *callStats) record(items int, ns int64) {
	c.calls.Add(1)
	c.items.Add(int64(items))
	c.ns.Add(ns)
}

func (c *callStats) nsPerItem() float64 {
	if n := c.items.Load(); n > 0 {
		return float64(c.ns.Load()) / float64(n)
	}
	return 0
}

func (c *callStats) itemsPerCall() float64 {
	if n := c.calls.Load(); n > 0 {
		return float64(c.items.Load()) / float64(n)
	}
	return 0
}

// authTrace times the relay's authenticator: verify and sign calls.
type authTrace struct {
	log    *spanLog
	verify callStats
	sign   callStats
}

// wrapAuth returns a tracing authenticator that implements exactly the
// optional interfaces a does.
func wrapAuth(a security.Authenticator, t *authTrace) security.Authenticator {
	base := &tracedAuth{a: a, t: t}
	sa, isSession := a.(security.SessionAuthenticator)
	ba, isBatch := a.(security.BatchAuthenticator)
	switch {
	case isSession && isBatch:
		return &tracedSessionBatchAuth{tracedSessionAuth{base, sa}, tracedBatchAuth{base, ba}}
	case isSession:
		return &tracedSessionAuth{base, sa}
	case isBatch:
		return &tracedBatchAuth{base, ba}
	}
	return base
}

type tracedAuth struct {
	a security.Authenticator
	t *authTrace
}

func (w *tracedAuth) timed(st *callStats, name string, items int, fn func()) {
	start := w.t.log.now()
	fn()
	end := w.t.log.now()
	st.record(items, end-start)
	w.t.log.add(name, fmt.Sprintf("batch%d", items), start, end)
}

func (w *tracedAuth) Scheme() proto.AuthScheme { return w.a.Scheme() }

func (w *tracedAuth) Sign(pkt []byte) (out []byte) {
	w.timed(&w.t.sign, "auth.sign", 1, func() { out = w.a.Sign(pkt) })
	return out
}

func (w *tracedAuth) Verify(pkt []byte) (inner []byte, ok bool) {
	w.timed(&w.t.verify, "auth.verify", 1, func() { inner, ok = w.a.Verify(pkt) })
	return inner, ok
}

type tracedBatchAuth struct {
	*tracedAuth
	ba security.BatchAuthenticator
}

func (w *tracedBatchAuth) VerifyBatch(pkts [][]byte, srcs []string) (inners [][]byte, oks []bool) {
	w.timed(&w.t.verify, "auth.verify", len(pkts), func() { inners, oks = w.ba.VerifyBatch(pkts, srcs) })
	return inners, oks
}

func (w *tracedBatchAuth) SignBatch(pkts [][]byte) (out [][]byte) {
	w.timed(&w.t.sign, "auth.sign", len(pkts), func() { out = w.ba.SignBatch(pkts) })
	return out
}

type tracedSessionAuth struct {
	*tracedAuth
	sa security.SessionAuthenticator
}

func (w *tracedSessionAuth) VerifySession(pkt []byte, src string) (inner []byte, id uint32, seq uint64, ok bool) {
	w.timed(&w.t.verify, "auth.verify", 1, func() { inner, id, seq, ok = w.sa.VerifySession(pkt, src) })
	return inner, id, seq, ok
}

func (w *tracedSessionAuth) VerifySessionBatch(pkts [][]byte, srcs []string) (inners [][]byte, ids []uint32, seqs []uint64, oks []bool) {
	w.timed(&w.t.verify, "auth.verify", len(pkts), func() { inners, ids, seqs, oks = w.sa.VerifySessionBatch(pkts, srcs) })
	return inners, ids, seqs, oks
}

func (w *tracedSessionAuth) SignFor(id uint32, pkt []byte) (out []byte) {
	w.timed(&w.t.sign, "auth.sign", 1, func() { out = w.sa.SignFor(id, pkt) })
	return out
}

func (w *tracedSessionAuth) SignForBatch(ids []uint32, pkts [][]byte) (out [][]byte) {
	w.timed(&w.t.sign, "auth.sign", len(pkts), func() { out = w.sa.SignForBatch(ids, pkts) })
	return out
}

type tracedSessionBatchAuth struct {
	tracedSessionAuth
	tracedBatchAuth
}

func (w *tracedSessionBatchAuth) Scheme() proto.AuthScheme { return w.tracedSessionAuth.Scheme() }
func (w *tracedSessionBatchAuth) Sign(pkt []byte) []byte   { return w.tracedSessionAuth.Sign(pkt) }
func (w *tracedSessionBatchAuth) Verify(pkt []byte) ([]byte, bool) {
	return w.tracedSessionAuth.Verify(pkt)
}

// connTrace times a wrapped lan.Conn: sends, batch writes, receives.
type connTrace struct {
	log        *spanLog
	send       callStats
	writeBatch callStats
	// onRecv and onWrite, when set, see each packet at the boundary
	// (receive hand-off; WriteBatch return) for hop timing.
	onRecv  func(pkt lan.Packet, at int64)
	onWrite func(batch []lan.Datagram, start, end int64)
}

// tracedConn wraps a lan.Conn. It implements BatchWriter, GSOCapable and
// RecvBatcher, forwarding each to the wrapped conn exactly as the
// program's own type assertions would: WriteBatch goes through
// lan.WriteBatch (the wrapped conn's fast path when it has one, the
// portable loop otherwise), SetGSO reports false when the wrapped conn
// has no GSO seam, and RecvBatchStats reports zero when it has no
// batched receive.
type tracedConn struct {
	c lan.Conn
	t *connTrace
}

func wrapConn(c lan.Conn, t *connTrace) *tracedConn { return &tracedConn{c: c, t: t} }

func (w *tracedConn) LocalAddr() lan.Addr { return w.c.LocalAddr() }

func (w *tracedConn) Send(to lan.Addr, data []byte) error {
	start := w.t.log.now()
	err := w.c.Send(to, data)
	end := w.t.log.now()
	w.t.send.record(1, end-start)
	w.t.log.add("lan.send", packetID(data), start, end)
	return err
}

func (w *tracedConn) WriteBatch(batch []lan.Datagram) (int, error) {
	start := w.t.log.now()
	n, err := lan.WriteBatch(w.c, batch)
	end := w.t.log.now()
	w.t.writeBatch.record(n, end-start)
	if w.t.onWrite != nil {
		w.t.onWrite(batch[:n], start, end)
	}
	if n > 0 {
		w.t.log.add("lan.writebatch", packetID(batch[0].Data), start, end)
	}
	return n, err
}

func (w *tracedConn) Recv(timeout time.Duration) (lan.Packet, error) {
	pkt, err := w.c.Recv(timeout)
	if err == nil {
		at := w.t.log.now()
		if w.t.onRecv != nil {
			w.t.onRecv(pkt, at)
		}
		w.t.log.add("relay.ingress", packetID(pkt.Data), at, at)
	}
	return pkt, err
}

func (w *tracedConn) Join(g lan.Addr) error  { return w.c.Join(g) }
func (w *tracedConn) Leave(g lan.Addr) error { return w.c.Leave(g) }
func (w *tracedConn) Close() error           { return w.c.Close() }

func (w *tracedConn) SetGSO(on bool) bool {
	if g, ok := w.c.(lan.GSOCapable); ok {
		return g.SetGSO(on)
	}
	return false
}

func (w *tracedConn) RecvBatchStats() lan.RecvBatchStats {
	if rb, ok := w.c.(lan.RecvBatcher); ok {
		return rb.RecvBatchStats()
	}
	return lan.RecvBatchStats{}
}

// packetID names a packet by (channel, seq) for Control and Data, and by
// type and channel otherwise.
func packetID(data []byte) string {
	t, ch, err := proto.PeekType(data)
	if err != nil {
		return "?"
	}
	if (t == proto.TypeData || t == proto.TypeControl) && len(data) >= 20 {
		return fmt.Sprintf("%s/%d/%d", t, ch, binary.BigEndian.Uint64(data[12:20]))
	}
	return fmt.Sprintf("%s/%d", t, ch)
}
