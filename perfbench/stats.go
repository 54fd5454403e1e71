package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// threadCPU is the calling thread's CPU time in ns
// (CLOCK_THREAD_CPUTIME_ID). The caller keeps its goroutine on one
// thread (runtime.LockOSThread) across the span it measures, so that a
// wait on a lock inside the span is neither counted nor misattributed.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// hist is a log-linear latency histogram over non-negative nanosecond
// values: 128 buckets per power of two, so a reported quantile is within
// 0.8% of the exact sample quantile. Adding a sample is an index
// computation and one increment, cheap enough for the checking sink to
// record every copy.
type hist struct {
	counts [64 * histSub]int64
	n      int64
}

const (
	histBits = 8
	histSub  = 1 << (histBits - 1) // buckets per octave
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<histBits {
		return int(v)
	}
	s := bits.Len64(uint64(v)) - histBits
	return s*histSub + int(uint64(v)>>uint(s))
}

// bucketBounds is the inverse of histIndex: [low, low+width).
func bucketBounds(i int) (low, width float64) {
	if i < 1<<histBits {
		return float64(i), 1
	}
	s := i/histSub - 1
	m := i - s*histSub
	return float64(uint64(m) << uint(s)), float64(uint64(1) << uint(s))
}

func (h *hist) add(v int64, n int64) {
	h.counts[histIndex(v)] += n
	h.n += n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, w := bucketBounds(i)
			return low + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, w := bucketBounds(len(h.counts) - 1)
	return low + w
}

// samples is an exact quantile set for the smaller populations (joins,
// packets, speaker batches).
type samples []float64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (getrusage, KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSnap is the slice of runtime/metrics the per-layer report uses.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[2].Value.Float64Histogram()
	}
	return r
}

// pauseQuantile is the q-quantile (seconds) of the GC pauses between two
// snapshots, read from the runtime's own pause histogram.
func pauseQuantile(a, b rtSnap, q float64) float64 {
	if a.pauses == nil || b.pauses == nil {
		return 0
	}
	diff := make([]uint64, len(b.pauses.Counts))
	var n uint64
	for i := range diff {
		diff[i] = b.pauses.Counts[i]
		if i < len(a.pauses.Counts) {
			diff[i] -= a.pauses.Counts[i]
		}
		n += diff[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= rank {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// heapPeak samples the live heap every 50 ms until stopped and keeps the
// largest value seen.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// hostFingerprint identifies the machine a run was measured on.
func hostFingerprint() map[string]any {
	var u syscall.Utsname
	release := ""
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		release = b.String()
	}
	model := ""
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     release,
		"go":         runtime.Version(),
		"cpu":        model,
	}
}

// windowed keeps one histogram per sub-window of the measurement
// window. A run reports the lower quartile of its sub-windows'
// quantiles: interference from outside the process (the host
// descheduling a virtual CPU for milliseconds, for minutes on end when
// its other tenants are busy) only ever adds latency, so the calmer
// sub-windows track the program, and a change to the program moves
// them all.
type windowed struct {
	width time.Duration
	min   int64 // fewest samples a sub-window needs to count
	subs  []*hist
	all   hist
}

func (w *windowed) add(at time.Duration, v int64) {
	i := 0
	if at > 0 {
		i = int(at / w.width)
	}
	for len(w.subs) <= i {
		w.subs = append(w.subs, &hist{})
	}
	w.subs[i].add(v, 1)
	w.all.add(v, 1)
}

func (w *windowed) quantile(q float64) float64 {
	var per samples
	for _, h := range w.subs {
		if h.n >= w.min {
			per = append(per, h.quantile(q))
		}
	}
	if len(per) == 0 {
		return w.all.quantile(q)
	}
	return per.quantile(0.25)
}

// cpuSeries samples process CPU and a delivery count once a second, so
// the CPU cost per delivery is reported as the median of per-second
// ratios.
type cpuSeries struct {
	stop  chan struct{}
	done  sync.WaitGroup
	cpu   []time.Duration
	count []int64
}

func sampleCPU(count func() int64) *cpuSeries {
	c := &cpuSeries{stop: make(chan struct{})}
	c.cpu, c.count = append(c.cpu, cpuTime()), append(c.count, count())
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.cpu, c.count = append(c.cpu, cpuTime()), append(c.count, count())
			}
		}
	}()
	return c
}

// end stops sampling and returns the median CPU ns per counted delivery
// over the whole seconds sampled, and the whole window's ratio.
func (c *cpuSeries) end(count func() int64) (median, whole float64) {
	close(c.stop)
	c.done.Wait()
	c.cpu, c.count = append(c.cpu, cpuTime()), append(c.count, count())
	var per samples
	for i := 1; i < len(c.cpu)-1; i++ {
		if n := c.count[i] - c.count[i-1]; n > 0 {
			per = append(per, float64(c.cpu[i]-c.cpu[i-1])/float64(n))
		}
	}
	last := len(c.cpu) - 1
	whole = ratio(float64(c.cpu[last]-c.cpu[0]), float64(c.count[last]-c.count[0]))
	if len(per) == 0 {
		return whole, whole
	}
	return per.quantile(0.5), whole
}

// windowedSamples is windowed for the smaller populations (joins,
// packets): exact samples per sub-window.
type windowedSamples struct {
	width time.Duration
	min   int
	subs  []samples
	all   samples
}

func (w *windowedSamples) add(at time.Duration, v float64) {
	i := 0
	if at > 0 {
		i = int(at / w.width)
	}
	for len(w.subs) <= i {
		w.subs = append(w.subs, nil)
	}
	w.subs[i] = append(w.subs[i], v)
	w.all = append(w.all, v)
}

func (w *windowedSamples) quantile(q float64) float64 {
	var per samples
	for _, s := range w.subs {
		if len(s) >= w.min {
			per = append(per, s.quantile(q))
		}
	}
	if len(per) == 0 {
		return w.all.quantile(q)
	}
	return per.quantile(0.25)
}

// Sub-windows: a copy sub-window must hold a thousand copies, so that
// its 99th percentile has ten samples beyond it; joins and packets are
// timed at their medians, per second.
const (
	copyWindow = 100 * time.Millisecond
	minCopies  = 1000
	minPerSec  = 50
)

func newCopyWindows() windowed          { return windowed{width: copyWindow, min: minCopies} }
func newSecondWindows() windowedSamples { return windowedSamples{width: time.Second, min: minPerSec} }
