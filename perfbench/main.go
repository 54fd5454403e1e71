// Command perfbench is the benchmark of record for the Ethernet Speaker
// relay mesh. It runs one named workload from a seed for a fixed
// window, checks every output against the generator's own record of
// what it injected, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) as the last line of its standard output:
//
//	perfbench --workload pa-broadcast --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; a run prints every one of the set it was asked for.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"delivery_p50_ms", "ms"}, {"last_copy_p50_ms", "ms"},
	{"cpu_ns_per_delivery", "ns"}, {"join_p50_ms", "ms"}, {"tune_in_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"relay.delivery_p99_ms", "ms"},
	{"relay.ingress_to_copy_p50_us", "us"}, {"relay.ingress_to_copy_p99_us", "us"},
	{"relay.ingress_to_last_copy_p50_ms", "ms"}, {"relay.queue_max", "count"}, {"relay.queue_drops", "count"},
	{"relay.copies_per_writebatch", "count"}, {"relay.deadline_flushes_per_s", "1/s"},
	{"relay.admit_per_pass", "count"}, {"relay.admit_overflow", "count"}, {"relay.join_p99_ms", "ms"},
	{"relay.encodes_per_upstream_pkt", "count"},
	{"security.verify_ns_per_request", "ns"}, {"security.sign_ns_per_ack", "ns"},
	{"security.requests_per_verify_call", "count"},
	{"lan.writebatch_ns_per_datagram", "ns"}, {"lan.send_ns_per_packet", "ns"}, {"lan.recv_per_batch", "count"},
	{"lan.multicast_hop_p50_us", "us"}, {"lan.unicast_hop_p50_us", "us"},
	{"codec.transcode_us.ulaw", "us"}, {"codec.transcode_us.ovl-high", "us"}, {"codec.transcode_us.ovl-low", "us"},
	{"dvr.append_ns", "ns"}, {"dvr.read_ns", "ns"}, {"proto.parse_ns.data", "ns"}, {"proto.parse_ns.subscribe", "ns"},
	{"speaker.first_play_ms", "ms"}, {"speaker.late_batches", "count"}, {"speaker.gap_fills", "count"},
	{"rebroadcast.pacing_lag_p99_ms", "ms"},
	{"runtime.alloc_bytes_per_delivery", "B"}, {"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_p99_us", "us"}, {"runtime.heap_peak_mb", "MB"},
	{"bench.generator_lag_p99_ms", "ms"}, {"bench.sink_ns_per_delivery", "ns"},
	{"bench.sink_cpu_ns_per_delivery", "ns"}, {"bench.cpu_less_sink_ns_per_delivery", "ns"},
}

type metricDef struct{ name, unit string }

// runWorkload runs one named workload; size scales its audience (1 for
// the benchmark of record, smaller for the smoke tests).
func runWorkload(name string, seed int64, seconds int, traced bool, size float64, out *output) error {
	switch name {
	case "pa-broadcast":
		return runInproc(name, seed, paBroadcast(seed, seconds, size), seconds, traced, out)
	case "multiroom-churn":
		return runInproc(name, seed, multiroomChurn(seed, seconds, size), seconds, traced, out)
	case "loopback-playout":
		return runLoopback(seed, seconds, traced, size, out)
	}
	return fmt.Errorf("unknown workload %q", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opsCount tallies operations attempted and failed, by kind.
type opsCount map[string][2]int64

func (o opsCount) add(kind string, attempted, failed int64) {
	v := o[kind]
	v[0] += attempted
	v[1] += failed
	o[kind] = v
}

// output collects one run's results.
type output struct {
	ops      opsCount
	faults   []string
	e2eM     map[string]metric
	layerM   map[string]metric
	notes    map[string]any
	selfTime map[string]float64
}

func newOutput() *output {
	return &output{
		ops: opsCount{}, e2eM: map[string]metric{}, layerM: map[string]metric{},
		notes: map[string]any{}, selfTime: map[string]float64{},
	}
}

func (o *output) e2e(name string, v float64, unit string)   { o.e2eM[name] = metric{v, unit} }
func (o *output) layer(name string, v float64, unit string) { o.layerM[name] = metric{v, unit} }
func (o *output) note(name string, v any)                   { o.notes[name] = v }

// selfTimeAdd records a layer's own time (ns) in the traced summary.
func (o *output) selfTimeAdd(layer string, ns float64) { o.selfTime[layer] += ns }

func main() {
	workload := flag.String("workload", "", "workload name: pa-broadcast, multiroom-churn, loopback-playout")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := newOutput()
	start := time.Now()
	if err := runWorkload(*workload, *seed, *seconds, *trace == 1, 1, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var attempted, failed int64
	byKind := map[string]any{}
	for k, v := range out.ops {
		attempted += v[0]
		failed += v[1]
		byKind[k] = map[string]int64{"attempted": v[0], "failed": v[1]}
	}
	correct := len(out.faults) == 0
	names, from := endToEnd, out.e2eM
	if *trace == 1 {
		names, from = perLayer, out.layerM
		summary(out)
	}
	metrics := map[string]metric{}
	for _, d := range names {
		m, ok := from[d.name]
		if !ok {
			// Not measured on this workload (see README.md); reported as
			// zero so every traced run prints every per-layer metric.
			m = metric{0, d.unit}
		}
		metrics[d.name] = m
	}
	for _, f := range out.faults {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect output: %s\n", f)
	}
	record := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": hostFingerprint(), "ops": byKind, "correct": correct,
		"faults": out.faults, "notes": out.notes, "elapsed_s": time.Since(start).Seconds(),
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]any{"record": record})
	_ = enc.Encode(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
}

// summary prints the traced run's per-layer metrics and each layer's
// self time to standard error.
func summary(out *output) {
	var names []string
	for _, d := range perLayer {
		names = append(names, d.name)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "per-layer metrics:")
	for _, n := range names {
		if m, ok := out.layerM[n]; ok {
			fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
		} else {
			fmt.Fprintf(os.Stderr, "  %-40s %14s (not on this workload)\n", n, "-")
		}
	}
	fmt.Fprintln(os.Stderr, "layer self time in the window:")
	var layers []string
	for l := range out.selfTime {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-20s %10.1f ms\n", l, out.selfTime[l]/1e6)
	}
}
