// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three workloads against an in-process deployment built from
// the layers' public constructors, checks every result, and prints the
// metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload durable-chain --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the deployment runs with no probes and the object holds
// the end-to-end metrics; with --trace 1 every layer seam is wrapped by a
// counting, timing probe (probes.go) and the object holds the per-layer
// metrics. Lines before the last one are a human-readable report. When
// a correctness check fails, the JSON line says "correct": false and the
// command exits non-zero. See README.md for the workloads and the
// metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// scenario is one benchmark workload. round builds a fresh deployment,
// measures it once and checks it; a run repeats rounds until its time is
// up and reports medians over them.
type scenario struct {
	name  string
	round func(rc *runCtx) (round, error)
}

var scenarios = []scenario{
	{"durable-chain", durableRound},
	{"sharded-remote", shardedRound},
	{"recover-restart", recoverRound},
}

// runCtx carries one run's settings to its rounds.
type runCtx struct {
	rng    *rand.Rand
	traced bool
	smoke  bool
	dir    string // where the WAL directories go
	seq    int    // round number, for unique directory names
}

// round is what one measured deployment reports.
type round struct {
	setups  []time.Duration // one per deployment booted
	elapsed time.Duration   // wall time of the timed serving phase
	lat     []time.Duration // per-instance latency in the timed phase
	recover time.Duration
	heapMB  float64
	allocKB float64            // TotalAlloc delta per instance of the timed phase
	fsyncs  float64            // WALStore.Syncs() delta per instance; -1 without a WAL
	layers  map[string]float64 // per-layer metrics, traced runs only
	counts  map[string]float64 // see serverCounts
	// attempted and failed count workflow instances.
	attempted, failed int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "durable-chain, sharded-remote or recover-restart")
	seed := flag.Int64("seed", 1, "workload seed: instance IDs (so partition placement) and the history mix")
	seconds := flag.Int("seconds", 20, "how long to keep measuring rounds")
	trace := flag.Int("trace", 0, "1 wraps every layer seam and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "one tiny round (tests)")
	dir := flag.String("dir", "", "directory for the WAL stores (default: a temporary directory)")
	flag.Parse()

	wl, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, runErr := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *smoke, *dir, os.Stdout)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", runErr)
		res.Correct = false
		res.Failed = max(res.Failed, 1)
		res.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if runErr != nil {
		os.Exit(1)
	}
}

func lookup(name string) (scenario, bool) {
	for _, wl := range scenarios {
		if wl.name == name {
			return wl, true
		}
	}
	return scenario{}, false
}

// run measures rounds of wl until the time is up (one round in smoke
// mode) and reduces them to the reported metrics. A failed correctness
// check ends the run with an error.
func run(wl scenario, seed int64, seconds time.Duration, traced, smoke bool, dir string, report io.Writer) (result, error) {
	if dir == "" {
		d, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		d, err := os.MkdirTemp(dir, "run-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	rc := &runCtx{rng: rand.New(rand.NewSource(seed)), traced: traced, smoke: smoke, dir: dir}
	var rounds []round
	attempted, failed := 0, 0
	begin := time.Now()
	for len(rounds) < minRounds(smoke) || (!smoke && time.Since(begin) < seconds) {
		rc.seq = len(rounds)
		r, err := wl.round(rc)
		attempted += r.attempted
		failed += r.failed
		if err != nil {
			return result{Attempted: attempted, Failed: failed}, fmt.Errorf("%s round %d: %w", wl.name, rc.seq, err)
		}
		rounds = append(rounds, r)
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	printReport(report, wl.name, rounds, attempted, failed, traced)
	if traced {
		for _, name := range reportedLayers {
			if _, ok := rounds[0].layers[name]; !ok {
				return result{}, fmt.Errorf("%s: per-layer metric %s was not measured", wl.name, name)
			}
			res.Metrics[name] = metric{medianOf(rounds, func(r round) float64 { return r.layers[name] }), layerUnit(name)}
		}
		return res, nil
	}
	res.Metrics["throughput_ips"] = metric{medianOf(rounds, func(r round) float64 {
		return float64(len(r.lat)) / r.elapsed.Seconds()
	}), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{medianOf(rounds, func(r round) float64 { return ms(percentile(r.lat, 0.5)) }), "ms"}
	res.Metrics["recover_s"] = metric{medianOf(rounds, func(r round) float64 { return r.recover.Seconds() }), "s"}
	var setups []float64
	for _, r := range rounds {
		for _, d := range r.setups {
			setups = append(setups, d.Seconds())
		}
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["heap_mb"] = metric{medianOf(rounds, func(r round) float64 { return r.heapMB }), "MiB"}
	res.Metrics["alloc_kb_per_inst"] = metric{medianOf(rounds, func(r round) float64 { return r.allocKB }), "KiB"}
	return res, nil
}

func minRounds(smoke bool) int {
	if smoke {
		return 1
	}
	return 3
}

// printReport writes the human-readable lines: every metric of the run
// with its unit, the latency tail with its sample count, and the
// per-layer metrics that only some workloads exercise.
func printReport(w io.Writer, name string, rounds []round, attempted, failed int, traced bool) {
	fmt.Fprintf(w, "%s: %d rounds, attempted %d instances, failed %d\n", name, len(rounds), attempted, failed)
	if traced {
		for _, n := range layerNames(rounds) {
			fmt.Fprintf(w, "  %-36s %12.4f %s\n", n, medianOf(rounds, func(r round) float64 { return r.layers[n] }), layerUnit(n))
		}
		return
	}
	var pooled []time.Duration
	for _, r := range rounds {
		pooled = append(pooled, r.lat...)
	}
	q, label := tailQuantile(len(pooled))
	fmt.Fprintf(w, "  latency_%s_ms %.4f ms (n=%d, pooled over rounds)\n", label, ms(percentile(pooled, q)), len(pooled))
	for _, n := range sortedKeys(rounds[0].counts) {
		fmt.Fprintf(w, "  %s %.4f count\n", n, medianOf(rounds, func(r round) float64 { return r.counts[n] }))
	}
	for i, r := range rounds {
		fmt.Fprintf(w, "  round %d: setup %.4fs (median of %d), %d inst in %.3fs (%.1f inst/s), p50 %.3fms, recover %.4fs, heap %.2fMiB, alloc %.2fKiB/inst\n",
			i, medianDur(r.setups).Seconds(), len(r.setups), len(r.lat), r.elapsed.Seconds(), float64(len(r.lat))/r.elapsed.Seconds(),
			ms(percentile(r.lat, 0.5)), r.recover.Seconds(), r.heapMB, r.allocKB)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile picks the highest reported percentile that still has at
// least ten samples beyond it.
func tailQuantile(n int) (float64, string) {
	for _, t := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}} {
		if float64(n)*(1-t.q) >= 10 {
			return t.q, t.label
		}
	}
	return 0.5, "p50"
}

func medianOf(rounds []round, f func(round) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, r := range rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

func median(vs []float64) float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func layerNames(rounds []round) []string { return sortedKeys(rounds[0].layers) }

func sortedKeys(m map[string]float64) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sampleBoots times extra boots of a round's deployment, each torn
// down at once, so set-ups that take milliseconds are reported as the
// median of many samples. boot returns the deployment's teardown.
func sampleBoots(rc *runCtx, boot func(i int) (func(), error)) ([]time.Duration, error) {
	n := extraBoots
	if rc.smoke {
		n = 1
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		teardown, err := boot(i)
		d := time.Since(start)
		if teardown != nil {
			teardown()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// extraBoots is how many throwaway deployments a round of a workload
// with a millisecond set-up boots besides the one it measures.
const extraBoots = 7

// roundDir returns a fresh directory for one deployment's WAL.
func (rc *runCtx) roundDir(tag string) string {
	return filepath.Join(rc.dir, fmt.Sprintf("%s-%d", tag, rc.seq))
}
