package main

import (
	"fmt"
)

// --- GUARD: bench drift guard ---
//
// Re-measures a pinned probe per guarded experiment and fails the run (exit
// 1, so `make drift` fails CI) when the best of driftTrials fresh
// measurements is worse than the committed baseline by more than the
// probe's ratio and by more than its absolute floor. Best-of-N and the
// floor make the guard hunt real regressions — a serialized write path, a
// lost fsync amortization, a broken pager or scheduler — not scheduler
// noise. Each probe also re-checks its experiment's invariants and fails
// outright when one breaks.

const driftTrials = 3

// probe is one guard row.
type probe struct {
	name    string
	format  string // how base and fresh values print
	base    float64
	higher  bool    // higher is better (throughput); otherwise lower is
	ratio   float64 // regression when worse than base by more than this factor...
	floor   float64 // ...and by more than this absolute amount
	trials  int     // 0 means driftTrials
	measure func(trial int) (float64, error)
}

// regressed reports whether a fresh value is worse than the baseline
// beyond both tolerances.
func (p probe) regressed(got float64) bool {
	if p.higher {
		return got*p.ratio < p.base && got < p.base-p.floor
	}
	return got > p.base*p.ratio && got > p.base+p.floor
}

// run measures the probe, adds its row to t, and returns a failure
// message, or "" when the probe is within tolerance.
func (p probe) run(t *table) string {
	if p.base == 0 {
		return p.name + ": no committed baseline; regenerate it and commit the BENCH file"
	}
	trials := p.trials
	if trials == 0 {
		trials = driftTrials
	}
	var best float64
	for trial := 0; trial < trials; trial++ {
		got, err := p.measure(trial)
		if err != nil {
			return err.Error()
		}
		if trial == 0 || (p.higher && got > best) || (!p.higher && got < best) {
			best = got
		}
	}
	verdict, msg := "ok", ""
	if p.regressed(best) {
		verdict = "REGRESSED"
		msg = fmt.Sprintf("%s "+p.format+" vs baseline "+p.format, p.name, best, p.base)
	}
	t.add(p.name, fmt.Sprintf(p.format, p.base), fmt.Sprintf(p.format, best), verdict)
	return msg
}

// guardProbes is the guard table, its baselines read from the committed
// BENCH files.
func guardProbes(quick bool) []probe {
	var probes []probe

	// W1: async put p50 with 0 and 8 open views (no full-text).
	ops := pick(quick, 1500, 400)
	for _, views := range []int{0, 8} {
		p := probe{name: fmt.Sprintf("W1 put p50 (views=%d)", views), format: "%.1fµs",
			ratio: 1.30, floor: 15, // sub-15µs moves are jitter
			measure: func(trial int) (float64, error) {
				db := wpDB(views, false)
				defer db.Close()
				r := measureWrites(db, ops, false, int64(400+views+trial))
				db.Refresh()
				return r.P50us, nil
			}}
		for _, r := range benchW1.load() {
			if r.Views == views && !r.FullText && !r.Refreshed {
				p.base = r.P50us
			}
		}
		probes = append(probes, p)
	}

	// W7: the fsync-bound single writer and the group-committed 64-writer
	// configuration — the two ends of the amortization claim.
	opsPer := pick(quick, 150, 60)
	for _, c := range []struct {
		writers int
		gc      bool
	}{{1, false}, {64, true}} {
		p := probe{name: fmt.Sprintf("W7 puts/s (writers=%d, gc=%v)", c.writers, c.gc), format: "%.0f/s",
			higher: true, ratio: 1.30,
			measure: func(int) (float64, error) {
				return measureW7(c.writers, opsPer, true, c.gc).PutsPerSec, nil
			}}
		for _, r := range benchW7.load() {
			if r.Writers == c.writers && r.SyncWAL && r.GroupCommit == c.gc {
				p.base = r.PutsPerSec
			}
		}
		probes = append(probes, p)
	}

	// W6: the dead-mate re-home median is wall-clock dominated (backup
	// restore, file replication, directory flip), hence the generous
	// tolerance; every trial re-checks the zero-lost-acked-writes audit.
	p := probe{name: "W6 rehome median", format: "%.1fms", ratio: 2, floor: 50,
		measure: func(int) (float64, error) {
			r := w6Rehome(6, 8, 4, 0)
			if r.LostAcked > 0 {
				return 0, fmt.Errorf("W6 re-home lost %d acked writes", r.LostAcked)
			}
			return r.RehomeMedianMs, nil
		}}
	for _, r := range benchW6.load() {
		if r.Phase == "rehome" {
			p.base = r.RehomeMedianMs
		}
	}
	probes = append(probes, p)

	// W8: ring convergence under churn is wall clock over a faulted network
	// with breaker cooldowns in the path; the guard hunts a scheduler that
	// takes many cooldown cycles or never converges. Convergence and zero
	// spurious conflicts must hold outright.
	p = probe{name: "W8 ring convergence", format: "%.0fms", ratio: 3, floor: 500,
		measure: func(int) (float64, error) {
			r := w8Churn("ring", 4, 6, true)
			if !r.Converged {
				return 0, fmt.Errorf("W8 ring replicas failed to converge")
			}
			if r.SpuriousConflicts > 0 {
				return 0, fmt.Errorf("W8 ring produced %d spurious conflicts", r.SpuriousConflicts)
			}
			return r.ConvergeMs, nil
		}}
	for _, r := range benchW8.load() {
		if r.Topology == "ring" {
			p.base = r.ConvergeMs
		}
	}
	probes = append(probes, p)

	// W9: view-open time over the emulated link is round trips x RTT, so
	// the guard hunts a broken pager (extra round trips, pages collapsing
	// to single rows). The paginated open must beat per-note by the
	// acceptance ratio outright.
	p = probe{name: "W9 view open (5ms RTT)", format: "%.1fms", ratio: 3, floor: 50,
		measure: func(int) (float64, error) {
			r := w9Probe()
			if r.SpeedupX < w9MinSpeedup {
				return 0, fmt.Errorf("W9 paginated view open only %.1fx faster than per-note (want >= %.0fx)",
					r.SpeedupX, w9MinSpeedup)
			}
			return r.ViewOpenMs, nil
		}}
	for _, r := range benchW9.load() {
		if r.Phase == "view-open-probe" {
			p.base = r.ViewOpenMs
		}
	}
	probes = append(probes, p)

	// W10: one reduced Phase A run (3 reads per mode) against a stalled
	// mate; the hedged p99 must beat the deadline-less baseline by the
	// acceptance ratio outright. The committed Phase B and C rows are
	// re-checked as invariants (waste ratio, audit zeros).
	w10 := benchW10.load()
	p = probe{name: "W10 hedged p99 (stalled mate)", format: "%.1fms", ratio: 3, floor: 30, trials: 1,
		measure: func(int) (float64, error) {
			for _, r := range w10 {
				switch {
				case r.Phase == "waste" && r.Mode == "budgeted" && r.WasteRatio > w10MaxWaste:
					return 0, fmt.Errorf("W10 committed budgeted waste ratio %.2f > %.2f", r.WasteRatio, w10MaxWaste)
				case r.Phase == "write-safety" && (r.LostAcked != 0 || r.Duplicated != 0):
					return 0, fmt.Errorf("W10 committed audit shows %d lost / %d duplicated acked writes", r.LostAcked, r.Duplicated)
				}
			}
			r, unids := w10Rig(10)
			defer r.close()
			baseRun := w10Tail(r, unids, "baseline", 3)
			hedgeRun := w10Tail(r, unids, "hedged", 3)
			speedup := 0.0
			if hedgeRun.P99Ms > 0 {
				speedup = baseRun.P99Ms / hedgeRun.P99Ms
			}
			if speedup < w10MinSpeedup {
				return 0, fmt.Errorf("W10 hedged p99 only %.1fx better than stalled-mate baseline (want >= %.0fx)",
					speedup, w10MinSpeedup)
			}
			return hedgeRun.P99Ms, nil
		}}
	for _, r := range w10 {
		if r.Phase == "tail" && r.Mode == "hedged" {
			p.base = r.P99Ms
		}
	}
	return append(probes, p)
}

func runGuard(quick bool) {
	t := newTable("probe", "baseline", "fresh", "verdict")
	var drift []string
	for _, p := range guardProbes(quick) {
		if msg := p.run(t); msg != "" {
			drift = append(drift, msg)
		}
	}
	t.print()
	for _, msg := range drift {
		fail("GUARD: %s", msg)
	}
	if len(drift) == 0 {
		fmt.Println("  no drift beyond tolerance against the committed baselines")
	}
}
