package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
	"repro/internal/workload"
)

// --- W1: write-path latency vs number of open change consumers ---
//
// The changefeed claim: Put latency is independent of how many views (and
// whether a full-text index) are open, because maintenance happens on
// subscriber goroutines. The "+refresh" rows re-add the cost by placing a
// full refresh barrier after every write — the synchronous-equivalent
// configuration the old write path always paid.

// wpResult is one measured configuration, serialized to
// BENCH_writepath.json as the regression baseline.
type wpResult struct {
	Views     int     `json:"views"`
	FullText  bool    `json:"fulltext"`
	Refreshed bool    `json:"refreshed"`
	Ops       int     `json:"ops"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	Meanus    float64 `json:"mean_us"`
}

// wpDB opens a database with the requested consumers attached.
func wpDB(views int, fulltext bool) *scratchDB {
	db := tempDB(domino.Options{Title: "w1"})
	for v := 0; v < views; v++ {
		def, err := domino.NewView(fmt.Sprintf("w%d", v), "SELECT @All",
			domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true},
			domino.ViewColumn{Title: "Cat", ItemName: "Category", Sorted: true})
		if err != nil {
			log.Fatal(err)
		}
		if err := db.AddView(nil, def); err != nil {
			log.Fatal(err)
		}
	}
	if fulltext {
		if err := db.EnableFullText(); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

// measureWrites runs ops creates and returns per-op percentiles.
func measureWrites(db *scratchDB, ops int, refreshed bool, seed int64) wpResult {
	g := workload.New(seed)
	docs := g.Corpus(ops, 512)
	sess := db.Session("exp")
	lats := make([]time.Duration, 0, ops)
	var total time.Duration
	for _, n := range docs {
		start := time.Now()
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		if refreshed {
			db.Refresh()
		}
		d := time.Since(start)
		lats = append(lats, d)
		total += d
	}
	toUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return wpResult{
		Refreshed: refreshed,
		Ops:       ops,
		P50us:     toUs(pct(lats, 0.50)),
		P95us:     toUs(pct(lats, 0.95)),
		Meanus:    toUs(total / time.Duration(ops)),
	}
}

func runW1(quick bool) {
	ops := pick(quick, 3000, 400)
	var results []wpResult
	t := newTable("views", "fulltext", "mode", "p50 µs", "p95 µs", "mean µs")
	for _, views := range []int{0, 1, 8} {
		for _, ftOn := range []bool{false, true} {
			db := wpDB(views, ftOn)
			r := measureWrites(db, ops, false, int64(100+views))
			r.Views, r.FullText = views, ftOn
			results = append(results, r)
			t.add(views, fmt.Sprint(ftOn), "async", r.P50us, r.P95us, r.Meanus)
			db.Refresh()
			db.Close()
		}
	}
	for _, views := range []int{0, 8} {
		db := wpDB(views, false)
		r := measureWrites(db, ops, true, int64(200+views))
		r.Views = views
		results = append(results, r)
		t.add(views, "false", "+refresh", r.P50us, r.P95us, r.Meanus)
		db.Close()
	}
	t.print()
	var p50v0, p50v8 float64
	for _, r := range results {
		if !r.Refreshed && !r.FullText {
			if r.Views == 0 {
				p50v0 = r.P50us
			}
			if r.Views == 8 {
				p50v8 = r.P50us
			}
		}
	}
	if p50v0 > 0 {
		fmt.Printf("  p50 ratio 8 views / 0 views = %.2fx (target: <= 1.5x)\n", p50v8/p50v0)
	}
	fmt.Println("  (shape check: async p50 flat in consumer count; +refresh pays it back)")
	benchW1.save(results)
}

// --- W7: group-commit write scaling (writers x SyncWAL x group commit) ---
//
// The group-commit claim: with SyncWAL on, N concurrent writers share one
// WAL force per commit window instead of paying one fsync each, so the
// aggregate put rate scales with the writer count instead of being pinned
// to the disk's fsync rate. The SyncWAL-on / group-commit-off column is the
// per-op-fsync discipline every configuration used before this change; the
// acceptance target (>=5x at 64 writers) is measured against it.

// w7Result is one measured configuration of the scaling matrix.
type w7Result struct {
	Writers     int     `json:"writers"`
	SyncWAL     bool    `json:"sync_wal"`
	GroupCommit bool    `json:"group_commit"`
	Ops         int     `json:"ops"`
	PutsPerSec  float64 `json:"puts_per_sec"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	WALFlushes  uint64  `json:"wal_flushes"`
	WALRecords  uint64  `json:"wal_records"`
}

// w7Window is the commit window used whenever group commit is on — the
// value the dominod -groupcommit flag documents as a good SyncWAL default.
const w7Window = 200 * time.Microsecond

// measureW7 runs writers goroutines of opsPer puts each against one fresh
// database and reports aggregate throughput plus per-op latency.
func measureW7(writers, opsPer int, syncWAL, groupCommit bool) w7Result {
	var window time.Duration
	if groupCommit {
		window = w7Window
	}
	db := tempDB(domino.Options{
		Title: "w7",
		Store: domino.StoreOptions{SyncWAL: syncWAL, GroupCommitWindow: window},
	})
	// Generate every writer's corpus before the clock starts.
	corpora := make([][]*domino.Note, writers)
	for w := range corpora {
		corpora[w] = workload.New(int64(700+w)).Corpus(opsPer, 256)
	}
	lats := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("w7-%d", w))
			ls := make([]time.Duration, 0, opsPer)
			for _, n := range corpora[w] {
				t0 := time.Now()
				if err := sess.Create(n); err != nil {
					log.Fatal(err)
				}
				ls = append(ls, time.Since(t0))
			}
			lats[w] = ls
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := db.Stats()
	db.Close()

	all := make([]time.Duration, 0, writers*opsPer)
	for _, ls := range lats {
		all = append(all, ls...)
	}
	toUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return w7Result{
		Writers:     writers,
		SyncWAL:     syncWAL,
		GroupCommit: groupCommit,
		Ops:         writers * opsPer,
		PutsPerSec:  float64(writers*opsPer) / elapsed.Seconds(),
		P50us:       toUs(pct(all, 0.50)),
		P95us:       toUs(pct(all, 0.95)),
		WALFlushes:  st.GroupCommitFlushes,
		WALRecords:  st.GroupCommitRecords,
	}
}

func runW7(quick bool) {
	opsPer := pick(quick, 150, 30)
	var results []w7Result
	t := newTable("writers", "syncWAL", "group commit", "puts/s", "p50 µs", "p95 µs", "records/flush")
	for _, writers := range []int{1, 4, 16, 64} {
		for _, syncWAL := range []bool{false, true} {
			for _, gc := range []bool{false, true} {
				r := measureW7(writers, opsPer, syncWAL, gc)
				results = append(results, r)
				amort := "-"
				if r.WALFlushes > 0 {
					amort = fmt.Sprintf("%.1f", float64(r.WALRecords)/float64(r.WALFlushes))
				}
				t.add(writers, fmt.Sprint(syncWAL), fmt.Sprint(gc),
					fmt.Sprintf("%.0f", r.PutsPerSec), r.P50us, r.P95us, amort)
			}
		}
	}
	t.print()
	var fsync64, gc64 float64
	for _, r := range results {
		if r.Writers == 64 && r.SyncWAL {
			if r.GroupCommit {
				gc64 = r.PutsPerSec
			} else {
				fsync64 = r.PutsPerSec
			}
		}
	}
	if fsync64 > 0 {
		fmt.Printf("  64 writers, SyncWAL on: group commit = %.1fx per-op fsync (target: >= 5x)\n",
			gc64/fsync64)
	}
	fmt.Println("  (shape check: SyncWAL throughput pinned to fsync rate without group commit, scales with writers with it)")
	benchW7.save(results)
}

// --- W2: incremental view refresh vs rebuild under concurrent writers ---
//
// The T2 experiment re-run with the write load still running: readers use
// the refresh barrier (incremental catch-up) or force a full rebuild while
// writers churn documents. The feed keeps maintenance incremental; the
// resync counter shows whether the churn ever forced the rebuild fallback.

func runW2(quick bool) {
	n := pick(quick, 10000, 1000)
	db := tempDB(domino.Options{Title: "w2"})
	defer db.Close()
	g := workload.New(7)
	docs := seedDocs(db.Database, g, n, 512)
	def, _ := domino.NewView("bycat", "SELECT @All",
		domino.ViewColumn{Title: "Category", ItemName: "Category", Sorted: true},
		domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err := db.AddView(nil, def); err != nil {
		log.Fatal(err)
	}

	// Background churn: 4 writers mutating documents until stopped.
	var stop atomic.Bool
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wg2 := workload.New(int64(300 + w))
			sess := db.Session(fmt.Sprintf("writer%d", w))
			for i := 0; !stop.Load(); i++ {
				d := docs[(w*1000+i)%len(docs)].Clone()
				wg2.Mutate(d)
				if err := sess.Update(d); err != nil {
					log.Fatal(err)
				}
				wrote.Add(1)
			}
		}(w)
	}

	reads := pick(quick, 200, 40)
	var refreshLats []time.Duration
	for i := 0; i < reads; i++ {
		start := time.Now()
		if _, ok := db.View("bycat"); !ok { // barrier + lookup
			log.Fatal("view lost")
		}
		refreshLats = append(refreshLats, time.Since(start))
	}

	rebuilds := 3
	start := time.Now()
	for i := 0; i < rebuilds; i++ {
		if err := db.AddView(nil, def); err != nil { // re-add forces rebuild
			log.Fatal(err)
		}
	}
	rebuild := time.Since(start) / time.Duration(rebuilds)

	stop.Store(true)
	wg.Wait()
	db.Refresh()

	t := newTable("docs", "writers", "refresh p50 µs", "refresh p95 µs", "rebuild ms", "rebuild/refresh")
	p50 := pct(refreshLats, 0.50)
	p95 := pct(refreshLats, 0.95)
	ratio := float64(rebuild) / float64(p50)
	t.add(n, 4, us(p50), us(p95), ms(rebuild), fmt.Sprintf("%.0fx", ratio))
	t.print()
	fs := db.Stats().Feed
	fmt.Printf("  churn: %d concurrent updates; feed usn=%d, resyncs:", wrote.Load(), fs.LastUSN)
	for _, s := range fs.Subscribers {
		fmt.Printf(" %s=%d", s.Name, s.Resyncs)
	}
	fmt.Println()
	fmt.Println("  (shape check: refresh barrier stays µs-scale under churn; rebuild pays the full scan)")
}
