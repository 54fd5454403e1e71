package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/audiodev"
	"repro/internal/codec"
	"repro/internal/lan"
	"repro/internal/proto"
)

// testSink is a sink with one recorded channel and one listener per
// requested tier, all leased on that channel.
func testSink(t *testing.T, profiles ...codec.Profile) (*sink, *streamRec, []*listener) {
	t.Helper()
	s := &sink{
		base: time.Now(), byAddr: map[lan.Addr]*listener{},
		delivery: newCopyWindows(), joinLat: newSecondWindows(),
	}
	st := newStreamRec(1, 1, 64, 8)
	s.streams = []*streamRec{nil, st}
	var ls []*listener
	for i, p := range profiles {
		l := &listener{addr: listenerAddr(i), ch: 1, prof: p, subSent: 1, subPushed: 1}
		l.mu = &s.stripes[i].Mutex
		s.byAddr[l.addr] = l
		ls = append(ls, l)
	}
	return s, st, ls
}

// inject records data packets 1..n as the generator would.
func inject(t *testing.T, st *streamRec, n int) {
	t.Helper()
	for seq := uint64(1); seq <= uint64(n); seq++ {
		d := proto.Data{Channel: st.ch, Epoch: st.epoch, Seq: seq, Payload: churnPayload(7, st.ch, seq)}
		b, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		st.data[seq-1], st.dataDue[seq-1] = b, int64(seq)*int64(tick)
		st.pushed[seq-1].Store(int64(seq) * int64(tick))
		st.head.Store(seq)
	}
	c := proto.Control{Channel: st.ch, Epoch: st.epoch, Seq: 1, Params: churnParams, Codec: "raw", Interval: 1000}
	b, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st.ctl[0] = b
	st.ctlHead.Store(1)
}

func deliver(s *sink, to lan.Addr, pkts ...[]byte) {
	for _, p := range pkts {
		s.writeBatch([]lan.Datagram{{To: to, Data: p}})
	}
}

func wantFault(t *testing.T, s *sink, substr string) {
	t.Helper()
	for _, f := range s.faults {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Fatalf("no fault containing %q; faults: %q", substr, s.faults)
}

func TestSinkAcceptsCleanStream(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 4)
	deliver(s, ls[0].addr, st.ctl[0], st.data[0], st.data[1], st.data[2], st.data[3])
	if len(s.faults) != 0 || ls[0].holes != 0 {
		t.Fatalf("clean stream flagged: %q, holes %d", s.faults, ls[0].holes)
	}
}

func TestSinkRejectsCorruptedCopy(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 2)
	bad := append([]byte(nil), st.data[1]...)
	bad[len(bad)-1] ^= 1
	deliver(s, ls[0].addr, st.data[0], bad)
	wantFault(t, s, "differs from what was injected")
}

func TestSinkRejectsReorderedCopy(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 3)
	deliver(s, ls[0].addr, st.data[1], st.data[0])
	wantFault(t, s, "duplicate or reordered")
}

func TestSinkRejectsDuplicatedCopy(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 3)
	deliver(s, ls[0].addr, st.data[0], st.data[1], st.data[1])
	wantFault(t, s, "duplicate or reordered")
}

func TestSinkRejectsForeignCopies(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 1)
	deliver(s, "10.9.9.9:7000", st.data[0])
	wantFault(t, s, "never subscribed")

	s, st, ls = testSink(t, codec.ProfileSource)
	inject(t, st, 1)
	d := proto.Data{Channel: 2, Epoch: 1, Seq: 1, Payload: []byte{1, 2}}
	b, _ := d.Marshal()
	deliver(s, ls[0].addr, b)
	wantFault(t, s, "foreign channel")

	s, st, ls = testSink(t, codec.ProfileSource)
	inject(t, st, 1)
	ls[0].subSent = 0 // never asked for a lease
	deliver(s, ls[0].addr, st.data[0])
	wantFault(t, s, "holds no lease")
}

func TestSinkRejectsNeverInjectedCopy(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 3)
	d := proto.Data{Channel: 1, Epoch: 1, Seq: 9, Payload: []byte{1}}
	b, _ := d.Marshal()
	deliver(s, ls[0].addr, b)
	wantFault(t, s, "never injected")
}

func TestSinkRejectsCopyQueuedBeforeSubscribe(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 3)
	ls[0].subPushed = st.pushed[1].Load() + 1
	deliver(s, ls[0].addr, st.data[0])
	wantFault(t, s, "before its Subscribe")
}

// A copy missing between a listener's first and last copy (at a
// backlog->live seam or anywhere else) is a hole the relay's drop
// counters must account for.
func TestSinkRejectsUnaccountedHole(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, 8)
	l := ls[0]
	deliver(s, l.addr, st.ctl[0], st.data[0], st.data[1], st.data[2], st.data[4], st.data[5])
	if l.holes != 1 {
		t.Fatalf("holes = %d, want 1", l.holes)
	}
	s.checkHoles(l.holes, 0)
	wantFault(t, s, "copies missing")

	s2, _, _ := testSink(t)
	s2.checkHoles(1, 1) // one hole, one drop the relay counted: a failure, not a fault
	if len(s2.faults) != 0 {
		t.Fatalf("accounted hole flagged: %q", s2.faults)
	}
}

// ackAndOpen grants l its lease at ackAt and opens the window over the
// whole injected stream.
func ackAndOpen(s *sink, st *streamRec, l *listener, ackAt int64) {
	l.acked, l.ackAt = true, ackAt
	st.winFirst.Store(1)
	st.winLast.Store(st.head.Load())
	s.winStart.Store(1)
}

// A listener that cancels is owed every copy due up to cancelSlack
// before its Cancel, whatever it received: a relay that leases it and
// never serves it, or stops early, fails those copies.
func TestExpectedCopiesOfCancelledListener(t *testing.T) {
	const n = 60 // packets due every tick from 10 ms to 600 ms
	s, st, ls := testSink(t, codec.ProfileSource)
	inject(t, st, n)
	l := ls[0]
	ackAndOpen(s, st, l, int64(tick)+1)           // first packet due after the grant: seq 2
	l.cutoff = int64(n*tick) - int64(cancelSlack) // seq 34 is the last due before it
	want, missing := expectedCopies(l, st)
	if want != 33 || missing != 33 {
		t.Fatalf("acked, cancelled, never served: want %d missing %d, expected 33 and 33", want, missing)
	}

	deliver(s, l.addr, st.data[1:20]...) // served seqs 2..20, then nothing
	if want, missing = expectedCopies(l, st); want != 33 || missing != 14 {
		t.Fatalf("served up to seq 20: want %d missing %d, expected 33 and 14", want, missing)
	}
	deliver(s, l.addr, st.data[20:]...) // copies after the cutoff do not offset the count
	if want, missing = expectedCopies(l, st); want != 33 || missing != 0 {
		t.Fatalf("served to the end: want %d missing %d, expected 33 and 0", want, missing)
	}

	s, st, ls = testSink(t, codec.ProfileSource)
	inject(t, st, n)
	ackAndOpen(s, st, ls[0], int64(tick)+1)
	if want, missing = expectedCopies(ls[0], st); want != n-1 || missing != n-1 {
		t.Fatalf("leased to the end, never served: want %d missing %d", want, missing)
	}
}

func TestSinkRejectsMisEpochedTierCopy(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileULaw)
	inject(t, st, 1)
	deliver(s, ls[0].addr, st.data[0]) // the source epoch, not epoch<<2|tier
	wantFault(t, s, "tier ulaw wants")
}

func TestSinkRejectsDivergentTierCopies(t *testing.T) {
	s, st, ls := testSink(t, codec.ProfileULaw, codec.ProfileULaw)
	inject(t, st, 1)
	mk := func(b byte) []byte {
		d := proto.Data{Channel: 1, Epoch: 1<<2 | 1, Seq: 1, Payload: []byte{b, b}}
		p, _ := d.Marshal()
		return p
	}
	deliver(s, ls[0].addr, mk(1))
	deliver(s, ls[1].addr, mk(2))
	wantFault(t, s, "differs from another listener's")
}

// An OVL tier copy must carry the tier's transcoding of its own seq's
// chunk: one carrying another seq's audio is rejected, though it has
// the right seq, epoch and length, and decodes.
func TestCheckTiersRejectsWrongChunk(t *testing.T) {
	for _, swap := range []bool{false, true} {
		p := codec.ProfileOVLHigh
		s, st, ls := testSink(t, p)
		inject(t, st, 3)
		name, q := p.CodecSpec()
		ctl := proto.Control{Channel: 1, Epoch: 1<<2 | uint32(p), Seq: 1, Params: churnParams, Codec: name, Quality: uint8(q), Interval: 1000}
		b, _ := ctl.Marshal()
		deliver(s, ls[0].addr, b)
		tx, err := codec.NewTranscoder("raw", churnParams, p)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			from := seq
			if swap && seq == 3 {
				from = 2
			}
			src, _ := proto.UnmarshalData(st.data[from-1])
			payload, err := tx.Transcode(src.Payload)
			if err != nil {
				t.Fatal(err)
			}
			d := proto.Data{Channel: 1, Epoch: 1<<2 | uint32(p), Seq: seq, Payload: payload}
			b, _ := d.Marshal()
			deliver(s, ls[0].addr, b)
		}
		plan := &inprocPlan{channels: []chanSpec{{id: 1, params: churnParams, codec: "raw"}}}
		checkTiers(s, plan, newOutput())
		if !swap && len(s.faults) != 0 {
			t.Fatalf("faithful tier copies flagged: %q", s.faults)
		}
		if swap {
			wantFault(t, s, "is not the ovl-high transcoding of the chunk injected as seq 3")
		}
	}
}

func playBlock(positions ...int) audiodev.PlayedBlock {
	b := make([]byte, 0, 4*len(positions))
	for _, p := range positions {
		var f [4]byte
		binary.LittleEndian.PutUint16(f[0:], uint16(int16(p)))
		binary.LittleEndian.PutUint16(f[2:], uint16(int16(-p)))
		b = append(b, f[:]...)
	}
	return audiodev.PlayedBlock{Time: time.Now(), Data: b}
}

func TestPlayCheckRejectsSplicedStream(t *testing.T) {
	var p playCheck
	p.block(playBlock(0, 0, 10, 11, 12))
	p.block(playBlock(13, 14, 0, 0)) // silence inside a run is not a splice
	if p.splices != 0 || p.corrupt != 0 || p.frames != 5 {
		t.Fatalf("contiguous run flagged: splices %d corrupt %d frames %d", p.splices, p.corrupt, p.frames)
	}
	p.block(playBlock(15, 40, 41))
	if p.splices != 1 {
		t.Fatalf("splices = %d, want 1", p.splices)
	}
	p.block(playBlock(lbPosPeriod, 1, 2)) // the position code wraps
	if p.splices != 2 {
		t.Fatalf("wrap counted as splice or splice missed: %d", p.splices)
	}
	var q playCheck
	q.block(audiodev.PlayedBlock{Data: []byte{5, 0, 5, 0}}) // R != -L
	if q.corrupt != 1 {
		t.Fatalf("corrupt frame not flagged")
	}
}

// The µ-law error bound holds for the codec's own round trip over every
// 16-bit sample the workloads can produce, and is tight enough that a
// sample two steps off fails it.
func TestULawStepBound(t *testing.T) {
	for x := -16500; x <= 16500; x++ {
		got := int(audio.ULawToLinear(audio.LinearToULaw(int16(x))))
		if e := got - x; e > ulawStep(int16(x)) || -e > ulawStep(int16(x)) {
			t.Fatalf("x=%d decodes to %d, off by %d, step %d", x, got, e, ulawStep(int16(x)))
		}
	}
	if ulawStep(0) > 16 || ulawStep(16000) < 512 {
		t.Fatalf("step out of G.711 range: %d %d", ulawStep(0), ulawStep(16000))
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Smoke runs: every workload end to end at a tiny size and a short
// window, untraced and traced, must finish correct with nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds each")
	}
	for _, w := range []string{"pa-broadcast", "multiroom-churn", "loopback-playout"} {
		for _, traced := range []bool{false, true} {
			out := newOutput()
			err := runWorkload(w, 3, smokeSeconds, traced, smokeSize, out)
			if err != nil && w == "loopback-playout" && strings.Contains(err.Error(), "multicast loopback unavailable") {
				t.Skipf("%s: %v", w, err)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(out.faults) != 0 {
				t.Fatalf("%s traced=%v: incorrect outputs: %q", w, traced, out.faults)
			}
			for kind, v := range out.ops {
				if v[0] == 0 || v[1] != 0 {
					t.Errorf("%s traced=%v: %s attempted %d failed %d", w, traced, kind, v[0], v[1])
				}
			}
			names, from := endToEnd, out.e2eM
			if traced {
				names, from = perLayer[:0], out.layerM
			}
			for _, d := range names {
				if m, ok := from[d.name]; !ok || m.Value <= 0 {
					t.Errorf("%s: %s = %v (present %v)", w, d.name, m.Value, ok)
				}
			}
		}
	}
}

// smokeSize scales every workload down to a few dozen listeners; a
// two-second window holds at least one Control on every channel, so
// every tune-in metric has samples.
const (
	smokeSize    = 0.02
	smokeSeconds = 2
)
