package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/nsf"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{0, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 49, true},
		{100, 90, 10, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{9999, 99, 99, true},
		{10000, 99.9, 10, true},
	}
	for _, c := range cases {
		p, beyond, ok := supportedTail(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("supportedTail(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
	var l latencies
	for i := 10; i > 0; i-- {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(l.sorted(), 90); got != 9 {
		t.Errorf("p90 of 1..10 ms = %g ms, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// A root with two overlapping children: covered 10..50 = 40.
		{Req: 1, ID: 1, Name: "wire.get", Start: 0, End: 100 * ms},
		{Req: 1, ID: 2, Parent: 1, Name: "core.get", Start: 10 * ms, End: 30 * ms},
		{Req: 1, ID: 3, Parent: 1, Name: "core.get", Start: 20 * ms, End: 50 * ms},
		// A grandchild counts against its own parent only.
		{Req: 1, ID: 4, Parent: 2, Name: "store.get", Start: 12 * ms, End: 18 * ms},
		// A ladder rung issued after its parent returned: its length is
		// the covered part.
		{Req: 2, ID: 5, Name: "wire.save", Start: 200 * ms, End: 260 * ms},
		{Req: 2, ID: 6, Parent: 5, Name: "core.save", Start: 260 * ms, End: 300 * ms},
		// A child longer than its parent leaves no self time.
		{Req: 3, ID: 7, Name: "wire.get", Start: 400 * ms, End: 410 * ms},
		{Req: 3, ID: 8, Parent: 7, Name: "core.get", Start: 410 * ms, End: 430 * ms},
	}
	want := map[uint64]time.Duration{1: 60 * ms, 2: 14 * ms, 3: 30 * ms, 4: 6 * ms, 5: 20 * ms, 6: 40 * ms, 7: 0, 8: 20 * ms}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
	st := summarize(spans)
	if m := st.selfMedian("wire.get", ms); m != 30 {
		t.Errorf("median wire.get self = %g ms, want 30", m)
	}
}

func TestTracerNestsByParent(t *testing.T) {
	tr := newTracer()
	req := tr.request()
	root := tr.do(req, 0, "wire.get", func() {})
	child := tr.do(req, root, "core.get", func() {})
	tr.do(req, child, "store.get", func() {})
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Req != req || s.End < s.Start {
			t.Errorf("span %+v: wrong request or negative duration", s)
		}
	}
	if byID[child].Parent != root || spans[2].Parent != child || byID[root].Parent != 0 {
		t.Errorf("spans not nested by parent: %+v", spans)
	}
}

var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
		if !validUnit.MatchString(d.unit) {
			t.Errorf("metric %s has invalid unit %q", d.name, d.unit)
		}
	}
	for _, w := range workloadNames {
		if !validName.MatchString(w) || setups[w].setup == nil {
			t.Errorf("workload %q is invalid or has no set-up", w)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p99µs", "x/y", string(make([]byte, 65))} {
		if validName.MatchString(bad) {
			t.Errorf("name %q should be rejected", bad)
		}
	}
	for _, good := range []string{"setup_s", "wire.self_us.get", "op1-p50", "9lives"} {
		if !validName.MatchString(good) {
			t.Errorf("name %q should be accepted", good)
		}
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json declares exactly the
// metrics and workloads this program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(benchWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != benchWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, benchWorkloads[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, want %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

func TestSeedFixesCorpus(t *testing.T) {
	a, b := newDocSource(42).corpus(200), newDocSource(42).corpus(200)
	for i := range a {
		if !bytes.Equal(nsf.EncodeNote(a[i]), nsf.EncodeNote(b[i])) {
			t.Fatalf("document %d differs between two corpora of one seed", i)
		}
	}
	c := newDocSource(43).corpus(1)
	if bytes.Equal(nsf.EncodeNote(a[0]), nsf.EncodeNote(c[0])) {
		t.Fatal("seeds 42 and 43 generated the same first document")
	}
}

// opStream renders the first n draws of every workload's client streams
// for one seed: operation kinds, Zipf ranks and the edited documents.
func opStream(seed int64, n int) [][]byte {
	var out [][]byte
	for client := 0; client < 2; client++ {
		cs := clientSeed(seed, client)
		rng := rand.New(rand.NewSource(cs))
		z := newZipfRank(rng, officeDocs/2)
		src := newDocSource(cs + 1)
		for i := 0; i < n; i++ {
			op, rank := drawOffice(rng), z.draw(officeDocs/2)
			doc := src.next()
			src.gen.Mutate(doc)
			out = append(out, append([]byte{byte(op), byte(rank), byte(rank >> 8)}, nsf.EncodeNote(doc)...))
		}
	}
	rng := rand.New(rand.NewSource(clientSeed(seed, 0)))
	for i := 0; i < n; i++ {
		if drawIngest(rng) {
			out = append(out, []byte{1})
		} else {
			out = append(out, []byte{0})
		}
	}
	return out
}

func TestSeedFixesOpStream(t *testing.T) {
	a, b := opStream(7, 500), opStream(7, 500)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("operation %d differs between two streams of one seed", i)
		}
	}
	c := opStream(8, 500)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 drew identical streams")
	}
	counts := map[int]int{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		counts[drawOffice(rng)]++
	}
	for op, want := range map[int]float64{opGet: 0.75, opUpdate: 0.12, opCreate: 0.05, opDelete: 0.05, opViewPage: 0.03} {
		if got := float64(counts[op]) / 100000; got < want-0.01 || got > want+0.01 {
			t.Errorf("office op %d drawn %.3f of the time, want %.2f", op, got, want)
		}
	}
}

// TestNotesMapEveryLayerMetric checks that the interaction map names what
// each per-layer metric should move.
func TestNotesMapEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("benchmark_notes.json")
	if err != nil {
		t.Fatal(err)
	}
	var notes struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		PerLayer  map[string]string          `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &notes); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if notes.PerLayer[d.name] == "" {
			t.Errorf("per-layer metric %s has no entry in the interaction map", d.name)
		}
	}
	if len(notes.PerLayer) != len(perLayer) {
		t.Errorf("interaction map has %d entries, want %d", len(notes.PerLayer), len(perLayer))
	}
	for _, w := range workloadNames {
		if notes.Workloads[w] == nil {
			t.Errorf("workload %s has no notes", w)
		}
	}
}
