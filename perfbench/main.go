// Command perfbench is the repository's benchmark. It boots in-process
// servers on loopback, drives one seeded workload with two closed-loop
// client connections, checks every result, and prints each metric by name
// and unit; the last line of standard output is a JSON summary.
//
//	perfbench --workload office|bulkread|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the summary carries the end-to-end metrics of one timed
// phase. With --trace 1 it carries the per-layer metrics: the run's seconds
// are split evenly between an untraced phase that supplies the counters and
// a second phase that samples a ladder of in-process calls under a fixed
// share of operations, and standalone probes time single layers on the
// workload's own corpus.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/nsf"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 3

// workloadDef is one workload's set-up and the size of the corpus it seeds.
// The corpus is generated once per run, outside set-up timing: set-up
// time covers seeding, index builds, boot and dial, not input generation.
type workloadDef struct {
	setup func(b *bench, corpus []*nsf.Note) (mix, error)
	docs  int
}

var setups = map[string]workloadDef{
	"office":   {setupOffice, officeDocs},
	"bulkread": {setupBulkread, bulkDocs},
	"ingest":   {setupIngest, ingestDocs},
}

// preparer is implemented by workloads that precompute expected results
// from their corpus, outside set-up timing.
type preparer interface{ prepare() error }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: office, bulkread or ingest")
	seed := flag.Int64("seed", 1, "seed for the corpus and the operation streams")
	seconds := flag.Int("seconds", 10, "seconds of timed load; a traced run splits them over its two phases")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	def, ok := setups[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames, "|"))
		return 2
	}
	trace := *traceFlag == 1
	runDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	fmt.Printf("env workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s transport=loopback-tcp clients=2 loop=closed\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	corpus := newDocSource(*seed).corpus(def.docs)
	var b *bench
	var setupSecs []float64
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
		}
		b = &bench{name: *name, seed: *seed, cc: &connCounter{}, chk: &checker{},
			base: filepath.Join(runDir, fmt.Sprintf("setup-%d", i))}
		t0 := time.Now()
		w, err := def.setup(b, corpus)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		b.w = w
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", *name, err)
			b.close()
			return 1
		}
	}
	defer b.close()
	if p, ok := b.w.(preparer); ok {
		if err := p.prepare(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	corpus = nil // the workload keeps what it needs; free the rest
	runtime.GC()

	phase := time.Duration(*seconds) * time.Second
	if trace {
		phase /= 2
	}
	plain := b.runPhase(phase, nil)
	var traced *phaseResult
	var tr *tracer
	if trace {
		tr = newTracer()
		traced = b.runPhase(phase, tr)
		fillRungs(b, tr, traced)
	}
	b.w.verify()

	attempted, failed := plain.all.ops, plain.all.failed
	metrics := map[string]metricValue{}
	if trace {
		attempted += traced.all.ops
		failed += traced.all.failed
		pr, err := runProbes(b)
		if err != nil {
			b.chk.failf("layer probes: %v", err)
		}
		spans := tr.snapshot()
		lm := layerMetrics(b, plain, traced, spans, pr)
		for _, d := range perLayer {
			metrics[d.name] = metricValue{lm[d.name], d.unit}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := tr.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
		fmt.Printf("trace spans=%d file=%s untraced_ops_per_s=%.1f traced_ops_per_s=%.1f\n",
			len(spans), path, plain.opsPerSec(), traced.opsPerSec())
		printLayers(*name, metrics)
	} else {
		e2e := endToEndMetrics(*name, setupSecs, plain)
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}
	printReport(b, setupSecs, plain)

	correct, first := b.chk.ok()
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %s\n", first)
	}
	out, err := json.Marshal(summary{Correct: correct, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// pctOf returns the p-th percentile of one operation kind in unit.
func pctOf(r *rec, kind string, p float64, unit time.Duration) (float64, int) {
	asc := r.lat[kind].sorted()
	return percentile(asc, p) * float64(time.Millisecond) / float64(unit), len(asc)
}

// endToEndMetrics computes the BENCHMARK.json end-to-end metrics of one
// untraced phase; set-up time is the median over the set-ups.
func endToEndMetrics(workload string, setupSecs []float64, res *phaseResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":      median(setupSecs),
		"ops_per_s":    res.opsPerSec(),
		"heap_peak_mb": float64(res.heapPeak) / (1 << 20),
	}
	roles := opRoles[workload]
	for i, name := range e2eLatencies {
		m[name], _ = pctOf(res.all, roles[i], 50, time.Millisecond)
	}
	return m
}

// printReport prints every end-to-end figure the workload measures under
// its own name, with unit and sample count.
func printReport(b *bench, setupSecs []float64, res *phaseResult) {
	line := func(name string, v float64, unit, note string) {
		fmt.Printf("metric %s %s %.6g %s%s\n", b.name, name, v, unit, note)
	}
	line("setup_s", median(setupSecs), "s", fmt.Sprintf(" n=%d", len(setupSecs)))
	line("ops_per_s", res.opsPerSec(), "1/s", fmt.Sprintf(" n=%d", res.all.ops))
	line("fail_ratio", ratio(float64(res.all.failed), float64(res.all.ops)), "ratio", fmt.Sprintf(" n=%d", res.all.ops))
	line("heap_peak_mb", float64(res.heapPeak)/(1<<20), "MB", "")
	if b.name == "ingest" {
		line("batch_docs_per_s", ratio(float64(res.all.batchDocs), res.wall.Seconds()), "1/s", fmt.Sprintf(" n=%d", res.all.batchDocs))
	}
	for _, im := range issueMetrics[b.name] {
		unit := time.Millisecond
		if im.unit == "us" {
			unit = time.Microsecond
		}
		v, n := pctOf(res.all, im.kind, im.pct, unit)
		note := fmt.Sprintf(" n=%d", n)
		if tail, beyond, ok := supportedTail(n); !ok || im.pct > tail {
			note += fmt.Sprintf(" (p%g unsupported: %d samples)", im.pct, n)
		} else {
			note += fmt.Sprintf(" (highest supported p%g, %d beyond)", tail, beyond)
		}
		line(im.name, v, im.unit, note)
	}
	roles := opRoles[b.name]
	for i, kind := range roles {
		v, n := pctOf(res.all, kind, 50, time.Millisecond)
		fmt.Printf("role %s op%d=%s p50 %.6g ms n=%d\n", b.name, i+1, kind, v, n)
	}
	if ig, ok := b.w.(*ingest); ok {
		fmt.Printf("ingest cluster: catchup_notes=%d catchup_ms=%.3f saves_not_pushed=%d\n",
			ig.catchupNotes, float64(ig.catchupTime)/float64(time.Millisecond), ig.missed)
	}
}

func printLayers(workload string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("layer %s %s %.6g %s\n", workload, k, m[k].Value, m[k].Unit)
	}
}
