package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	domino "repro"
)

func TestPct(t *testing.T) {
	ms := time.Millisecond
	in := []time.Duration{5 * ms, 1 * ms, 4 * ms, 2 * ms, 3 * ms}
	orig := slices.Clone(in)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 1 * ms}, {0.5, 3 * ms}, {0.95, 4 * ms}, {0.99, 4 * ms}, {1, 5 * ms}} {
		if got := pct(in, c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !slices.Equal(in, orig) {
		t.Errorf("pct reordered its input: %v", in)
	}
}

func TestProbeVerdict(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       probe
		got     float64
		regress bool
	}{
		// Lower is better: worse means above base*ratio AND above base+floor.
		{"lower at ratio", probe{base: 100, ratio: 1.3, floor: 15}, 130, false},
		{"lower past ratio", probe{base: 100, ratio: 1.3, floor: 15}, 131, true},
		{"lower past ratio within floor", probe{base: 10, ratio: 1.3, floor: 15}, 25, false},
		{"lower past ratio and floor", probe{base: 10, ratio: 1.3, floor: 15}, 26, true},
		{"lower improved", probe{base: 100, ratio: 1.3, floor: 15}, 10, false},
		// Higher is better: worse means below base/ratio AND below base-floor.
		{"higher at ratio", probe{base: 1300, higher: true, ratio: 1.3}, 1000, false},
		{"higher past ratio", probe{base: 1300, higher: true, ratio: 1.3}, 999, true},
		{"higher past ratio within floor", probe{base: 100, higher: true, ratio: 1.3, floor: 50}, 60, false},
		{"higher past ratio and floor", probe{base: 100, higher: true, ratio: 1.3, floor: 50}, 49, true},
		{"higher improved", probe{base: 100, higher: true, ratio: 1.3}, 500, false},
	} {
		if got := c.p.regressed(c.got); got != c.regress {
			t.Errorf("%s: regressed(%v) = %v, want %v", c.name, c.got, got, c.regress)
		}
	}
}

func TestProbeRunKeepsBestTrial(t *testing.T) {
	series := []float64{140, 120, 160}
	measure := func(trial int) (float64, error) { return series[trial], nil }

	// Lower is better: the best trial (120) is within 1.3x of 100.
	tab := newTable("probe", "baseline", "fresh", "verdict")
	lower := probe{name: "lower", format: "%.0f", base: 100, ratio: 1.3, measure: measure}
	if msg := lower.run(tab); msg != "" {
		t.Errorf("lower: %s", msg)
	}
	// Higher is better: the best trial (160) is more than 1.3x below 250.
	higher := probe{name: "higher", format: "%.0f", base: 250, higher: true, ratio: 1.3, measure: measure}
	if msg := higher.run(tab); !strings.Contains(msg, "higher 160 vs baseline 250") {
		t.Errorf("higher: %q", msg)
	}
	if tab.rows[0][2] != "120" || tab.rows[1][2] != "160" || tab.rows[1][3] != "REGRESSED" {
		t.Errorf("rows = %v", tab.rows)
	}

	// One trial = one measurement; a broken invariant fails outright.
	calls := 0
	broken := probe{name: "broken", format: "%.0f", base: 1, trials: 1, measure: func(int) (float64, error) {
		calls++
		return 0, errors.New("invariant broken")
	}}
	if msg := broken.run(tab); msg != "invariant broken" || calls != 1 {
		t.Errorf("broken: %q after %d calls", msg, calls)
	}
	if msg := (probe{name: "unbaselined"}).run(tab); !strings.Contains(msg, "no committed baseline") {
		t.Errorf("missing baseline: %q", msg)
	}
}

// TestGuardTolerancesPinned pins every drift-guard tolerance and trial
// count: loosening one must show up as a change to this table.
func TestGuardTolerancesPinned(t *testing.T) {
	type tol struct {
		higher       bool
		ratio, floor float64
		trials       int
	}
	want := map[string]tol{
		"W1 put p50 (views=0)":            {false, 1.30, 15, 0},
		"W1 put p50 (views=8)":            {false, 1.30, 15, 0},
		"W7 puts/s (writers=1, gc=false)": {true, 1.30, 0, 0},
		"W7 puts/s (writers=64, gc=true)": {true, 1.30, 0, 0},
		"W6 rehome median":                {false, 2, 50, 0},
		"W8 ring convergence":             {false, 3, 500, 0},
		"W9 view open (5ms RTT)":          {false, 3, 50, 0},
		"W10 hedged p99 (stalled mate)":   {false, 3, 30, 1},
	}
	probes := guardProbes(true)
	if len(probes) != len(want) {
		t.Fatalf("%d probes, want %d", len(probes), len(want))
	}
	for _, p := range probes {
		w, ok := want[p.name]
		if !ok {
			t.Errorf("unexpected probe %q", p.name)
			continue
		}
		if got := (tol{p.higher, p.ratio, p.floor, p.trials}); got != w {
			t.Errorf("%s: tolerance %+v, want %+v", p.name, got, w)
		}
	}
	if driftTrials != 3 || w9MinSpeedup != 5 || w10MinSpeedup != 5 || w10MaxWaste != 0.10 {
		t.Errorf("driftTrials=%d w9MinSpeedup=%v w10MinSpeedup=%v w10MaxWaste=%v, want 3, 5, 5, 0.10",
			driftTrials, w9MinSpeedup, w10MinSpeedup, w10MaxWaste)
	}
}

func TestBenchSave(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", benchW9.file))
	if err != nil {
		t.Fatal(err)
	}
	w9 := bench[w9Result]{filepath.Join(t.TempDir(), "BENCH_readpath.json"), "w9"}
	defer func(q bool, f int) { *quickRun, failures = q, f }(*quickRun, failures)

	// Neither a quick run nor a run with a failed invariant writes.
	*quickRun, failures = true, 0
	w9.save([]w9Result{{Phase: "quick"}})
	*quickRun, failures = false, 1
	w9.save([]w9Result{{Phase: "failed"}})
	if _, err := os.Stat(w9.file); !os.IsNotExist(err) {
		t.Fatalf("refused save left a file behind: %v", err)
	}

	// Re-saving the committed rows reproduces the committed file.
	failures = 0
	if err := os.WriteFile(w9.file, committed, 0o666); err != nil {
		t.Fatal(err)
	}
	rows := w9.load()
	if len(rows) == 0 {
		t.Fatal("no committed w9 rows")
	}
	w9.save(rows)
	if got, _ := os.ReadFile(w9.file); !bytes.Equal(got, committed) {
		t.Fatalf("round trip changed the file:\n%s", got)
	}

	// Rewriting the w9 section keeps the w4 section byte-for-byte.
	w9.save(rows[:1])
	got, _ := os.ReadFile(w9.file)
	before, after := w9.sections(committed), w9.sections(got)
	if !bytes.Equal(before["w4"], after["w4"]) {
		t.Errorf("w4 section changed:\n%s\nvs\n%s", after["w4"], before["w4"])
	}
	var w9Rows []w9Result
	if err := json.Unmarshal(after["w9"], &w9Rows); err != nil || len(w9Rows) != 1 {
		t.Errorf("w9 section = %s (%v)", after["w9"], err)
	}
}

func TestTempDBAndLostAcked(t *testing.T) {
	db := tempDB(domino.Options{Title: "harness"})
	n := domino.NewDocument()
	n.SetText("Subject", "kept")
	if err := db.Session("exp").Create(n); err != nil {
		t.Fatal(err)
	}
	if lost := lostAcked([]domino.UNID{n.OID.UNID, domino.NewDocument().OID.UNID}, db.Database); lost != 1 {
		t.Errorf("lostAcked = %d, want 1", lost)
	}
	db.Close()
	if _, err := os.Stat(filepath.Dir(db.path)); !os.IsNotExist(err) {
		t.Errorf("tempDB directory survived Close: %v", err)
	}
}

func TestRigClusterDelivers(t *testing.T) {
	r := newRig(rigSpec{path: "apps/rig.nsf"}, "alpha", "beta")
	r.srv["alpha"].EnableClustering(map[string]string{"beta": r.addr["beta"]})
	n := domino.NewDocument()
	n.SetText("Subject", "shipped")
	if err := r.db["alpha"].Session("ada").Create(n); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := r.db["beta"].RawGet(n.OID.UNID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write never reached the mate")
		}
		time.Sleep(time.Millisecond)
	}
	r.close()
	if _, err := os.Stat(r.dir); !os.IsNotExist(err) {
		t.Errorf("rig directory survived close: %v", err)
	}
}
