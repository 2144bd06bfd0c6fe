// Command experiments regenerates every table and figure of the experiment
// suite defined in DESIGN.md §3 and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -exp F1    # run one experiment
//	experiments -quick     # smaller sizes; prints only, writes no BENCH file
//
// The run exits 1 when any invariant an experiment audits was violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// experiment is one table/figure generator.
type experiment struct {
	id    string
	title string
	run   func(q bool)
}

var experiments = []experiment{
	{"T1", "Note CRUD throughput vs document size", runT1},
	{"T2", "Incremental view update vs full rebuild", runT2},
	{"T3", "Deletion stub cutoff vs resurrection anomaly", runT3},
	{"T4", "Crash recovery time vs operations since checkpoint", runT4},
	{"T5", "Reader-field enforcement overhead on view reads", runT5},
	{"T6", "Mail routing throughput (local and cross-server)", runT6},
	{"T7", "Formula evaluation cost by complexity", runT7},
	{"T8", "Change propagation: hot link (cluster) vs cold link", runT8},
	{"W1", "Write-path latency vs open change consumers (changefeed)", runW1},
	{"W2", "Incremental view refresh vs rebuild under concurrent writers", runW2},
	{"W3", "Online backup: incremental vs full cost, hot-backup interference, restore/PITR", runW3},
	{"W4", "Read path under concurrent writes: RW latch + snapshot scans + note cache", runW4},
	{"W5", "Availability: failover window / zero lost acked writes, admission control under overload", runW5},
	{"W6", "Partitioned namespace: live moves and dead-mate re-homing, zero lost acked writes", runW6},
	{"W7", "Group-commit write scaling: writers x SyncWAL x group commit", runW7},
	{"W8", "Epidemic mesh convergence under churn: ring + hub-spoke, partition, killed mate", runW8},
	{"W9", "Paginated bulk reads: view open over 5ms RTT vs per-note, frame-bound 200k-row stream", runW9},
	{"W10", "Deadline budgets + hedged reads: stalled-mate tail, wasted work, write-safety audit", runW10},
	{"GUARD", "Bench drift guard (W1/W7 write path + W6 re-home + W8 mesh + W9 bulk read + W10 deadline vs committed baselines)", runGuard},
	{"F1", "Incremental replication vs full copy across deltas", runF1},
	{"F2", "Conflict outcomes vs concurrent-edit overlap", runF2},
	{"F3", "Full-text query latency: index vs scan", runF3},
	{"F4", "Replication topology convergence: hub-spoke vs ring", runF4},
	{"F5", "B+tree point lookups vs scan baseline", runF5},
}

func main() {
	exp := flag.String("exp", "all", "experiment id to run (T1..T7, F1..F5, or all)")
	flag.Parse()

	want := strings.ToUpper(*exp)
	ran := 0
	for _, e := range experiments {
		if want != "ALL" && e.id != want {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		e.run(*quickRun)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d invariant check(s) failed\n", failures)
		os.Exit(1)
	}
}

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// pick returns q when quick, full otherwise.
func pick(quick bool, full, q int) int {
	if quick {
		return q
	}
	return full
}
