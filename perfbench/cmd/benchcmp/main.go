// Command benchcmp compares benchmark runs of a parent commit and a
// change, workload by workload and end-to-end metric by metric, against
// the bounds BENCHMARK.json fixes. Each run is one file holding a
// perfbench run's standard output (its record line and its result line):
//
//	benchcmp -bench BENCHMARK.json -parent runs/parent -change runs/change
//
// With -change omitted it summarises one set: each metric's median,
// quartiles and quartile spread against its bound — the steadiness
// check a benchmark must pass before it measures anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// run is one perfbench run as read back from its output.
type run struct {
	workload  string
	seed      int64
	attempted int64
	failed    int64
	correct   bool
	metrics   map[string]float64
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition")
	parentDir := flag.String("parent", "", "directory of the parent commit's run outputs")
	changeDir := flag.String("change", "", "directory of the change's run outputs (omit to summarise -parent alone)")
	flag.Parse()
	spec, err := readSpec(*benchPath)
	if err != nil {
		fail(err)
	}
	if *parentDir == "" {
		fail(fmt.Errorf("-parent is required"))
	}
	parent, err := readRuns(*parentDir)
	if err != nil {
		fail(err)
	}
	var change map[string][]run
	if *changeDir != "" {
		if change, err = readRuns(*changeDir); err != nil {
			fail(err)
		}
	}
	var workloads []string
	for w := range parent {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		p := parent[w]
		fmt.Printf("== %s: parent %d runs, failed share %s", w, len(p), failedShare(p))
		if change != nil {
			fmt.Printf("; change %d runs, failed share %s", len(change[w]), failedShare(change[w]))
		}
		fmt.Println()
		if bad := incorrect(p); bad > 0 {
			fmt.Printf("   parent: %d runs reported incorrect outputs\n", bad)
		}
		if change != nil {
			if bad := incorrect(change[w]); bad > 0 {
				fmt.Printf("   change: %d runs reported incorrect outputs\n", bad)
			}
		}
		for _, m := range spec.EndToEnd {
			pv := values(p, m.Name)
			if len(pv) == 0 {
				continue
			}
			pq := quartiles(pv)
			spread := relSpread(pq)
			if change == nil {
				state := "steady"
				if spread > m.Bound {
					state = "UNSTEADY"
				} else if spread > m.Bound/3 {
					state = "steady (above a third of the bound)"
				}
				fmt.Printf("   %-22s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %5.1f%% of median, bound %4.0f%%: %s\n",
					m.Name, pq[1], m.Unit, pq[0], pq[2], 100*spread, 100*m.Bound, state)
				continue
			}
			cr := change[w]
			cv := values(cr, m.Name)
			if len(cv) == 0 {
				fmt.Printf("   %-22s missing from the change's runs\n", m.Name)
				continue
			}
			cq := quartiles(cv)
			won := pairsWon(p, cr, m)
			fmt.Printf("   %-22s parent %12.4f [%g, %g]  change %12.4f [%g, %g] %-5s pairs won %3.0f%%  %s\n",
				m.Name, pq[1], round(pq[0]), round(pq[2]), cq[1], round(cq[0]), round(cq[2]), m.Unit, 100*won,
				verdict(m, pv, cv, pq, cq, won))
		}
	}
}

// verdict follows the rules the benchmark is judged by: a gain needs
// nine tenths of the pairs and a median difference beyond the parent's
// own quartile spread; a change worse than the bound is worse; where the
// parent's spread exceeds the bound nothing can be concluded unless
// every change run beats every parent run.
func verdict(m metricSpec, pv, cv []float64, pq, cq [3]float64, won float64) string {
	lower := m.Better == "lower"
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	diff := cq[1] - pq[1]
	if lower {
		diff = -diff
	}
	if won >= 0.9 && diff > pq[2]-pq[0] {
		return "improved"
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if -diff > m.Bound*math.Abs(pq[1]) {
		return "WORSE"
	}
	if relSpread(pq) > m.Bound && !allBetter {
		return "unresolved"
	}
	return "no worse"
}

// pairsWon pairs parent and change runs by seed (by order where seeds
// do not match) and returns the share the change wins; ties count for
// neither side.
func pairsWon(p, c []run, m metricSpec) float64 {
	bySeed := map[int64]run{}
	for _, r := range c {
		bySeed[r.seed] = r
	}
	var pairs [][2]float64
	for i, r := range p {
		cr, ok := bySeed[r.seed]
		if !ok {
			if i >= len(c) {
				continue
			}
			cr = c[i]
		}
		pv, ok1 := r.metrics[m.Name]
		cv, ok2 := cr.metrics[m.Name]
		if ok1 && ok2 {
			pairs = append(pairs, [2]float64{pv, cv})
		}
	}
	if len(pairs) == 0 {
		return 0
	}
	var won int
	for _, pr := range pairs {
		if (m.Better == "lower" && pr[1] < pr[0]) || (m.Better == "higher" && pr[1] > pr[0]) {
			won++
		}
	}
	return float64(won) / float64(len(pairs))
}

// quartiles returns [q1, median, q3] computed as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	ld := len(d)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	// The median proper, not the second quartile's interpolation.
	if ld%2 == 1 {
		out[1] = d[ld/2]
	} else {
		out[1] = (d[ld/2-1] + d[ld/2]) / 2
	}
	return out
}

func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func values(rs []run, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.metrics[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

func failedShare(rs []run) string {
	var a, f int64
	for _, r := range rs {
		a += r.attempted
		f += r.failed
	}
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d (%.6f%%)", f, a, 100*float64(f)/float64(a))
}

func incorrect(rs []run) int {
	n := 0
	for _, r := range rs {
		if !r.correct {
			n++
		}
	}
	return n
}

func round(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns loads every file in dir that holds a perfbench result line,
// grouped by workload.
func readRuns(dir string) (map[string][]run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	out := map[string][]run{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r run
		var haveResult bool
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var rec struct {
				Record *struct {
					Workload string `json:"workload"`
					Seed     int64  `json:"seed"`
				} `json:"record"`
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue
			}
			if rec.Record != nil {
				r.workload, r.seed = rec.Record.Workload, rec.Record.Seed
			} else if rec.Correct != nil {
				haveResult = true
				r.correct, r.attempted, r.failed = *rec.Correct, rec.Attempted, rec.Failed
				r.metrics = map[string]float64{}
				for k, v := range rec.Metrics {
					r.metrics[k] = v.Value
				}
			}
		}
		if haveResult && r.workload != "" {
			out[r.workload] = append(out[r.workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no perfbench results under %s", dir)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
