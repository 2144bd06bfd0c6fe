package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/view"
)

// probeNotes is how many corpus documents the standalone layer probes run
// over.
const probeNotes = 1000

// probes are per-layer figures measured by calling one layer's public
// functions directly, with the load stopped.
type probes struct {
	encodeUs, decodeUs, decodeAllocs float64
	viewUpdateUs, ftUpdateUs         float64
	selectsUs                        float64
	scanNotesPerS                    float64
	fileBytesPerUserByte             float64
	meanNoteBytes                    float64
	catchupNotes                     int
	catchupTime                      time.Duration
}

// runProbes times the standalone layer probes on the workload's own
// corpus and the primary's store, and takes the catch-up pull's figures
// from ingest's final barrier or, on a workload without a cluster mate,
// from replProbe.
func runProbes(b *bench) (probes, error) {
	var p probes
	notes := b.w.sampleNotes()
	n := float64(len(notes))

	enc := make([][]byte, len(notes))
	t0 := time.Now()
	for i, note := range notes {
		enc[i] = nsf.EncodeNote(note)
	}
	p.encodeUs = float64(time.Since(t0).Microseconds()) / n
	var total int
	for _, e := range enc {
		total += len(e)
	}
	p.meanNoteBytes = float64(total) / n

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	for _, e := range enc {
		if _, err := nsf.DecodeNote(e); err != nil {
			return p, err
		}
	}
	p.decodeUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / n
	runtime.ReadMemStats(&m1)
	p.decodeAllocs = float64(m1.Mallocs-m0.Mallocs) / n

	defs, err := viewDefs(2)
	if err != nil {
		return p, err
	}
	ix := view.NewIndex(defs[1])
	fctx := &formula.Context{UserName: benchUser}
	t0 = time.Now()
	for _, note := range notes {
		if _, err := ix.Update(note, fctx); err != nil {
			return p, err
		}
	}
	p.viewUpdateUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / n

	fti := ft.NewIndex()
	t0 = time.Now()
	for _, note := range notes {
		fti.Update(note)
	}
	p.ftUpdateUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / n

	var evals int
	t0 = time.Now()
	for _, src := range b.w.scanFormulas() {
		sel, err := formula.Compile(src)
		if err != nil {
			return p, err
		}
		for _, note := range notes {
			if _, err := sel.Selects(note, fctx); err != nil {
				return p, err
			}
			evals++
		}
	}
	p.selectsUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(evals)

	db := b.primary()
	var scanned int
	t0 = time.Now()
	if err := db.ScanAll(func(*nsf.Note) bool { scanned++; return true }); err != nil {
		return p, err
	}
	p.scanNotesPerS = float64(scanned) / time.Since(t0).Seconds()

	var live int64
	if err := db.ScanAll(func(n *nsf.Note) bool {
		if !n.IsStub() && n.Class == nsf.ClassDocument {
			live += int64(len(nsf.EncodeNote(n)))
		}
		return true
	}); err != nil {
		return p, err
	}
	if err := db.Checkpoint(); err != nil {
		return p, err
	}
	fi, err := os.Stat(filepath.Join(b.base, b.nodes[0].srv.Name(), filepath.FromSlash(dbPath)))
	if err != nil {
		return p, err
	}
	p.fileBytesPerUserByte = ratio(float64(fi.Size()), float64(live))

	if ig, ok := b.w.(*ingest); ok {
		p.catchupNotes, p.catchupTime = ig.catchupNotes, ig.catchupTime
	} else if p.catchupNotes, p.catchupTime, err = replProbe(b); err != nil {
		return p, err
	}
	return p, nil
}

// layerMetrics assembles the per-layer metrics from the untraced phase's
// counters (plain), the traced phase's spans (traced), the standalone
// probes and the set-up's index build times.
func layerMetrics(b *bench, plain, traced *phaseResult, spans []span, pr probes) map[string]float64 {
	st := summarize(spans)
	ops := float64(plain.all.ops)
	secs := plain.wall.Seconds()
	us, ms := time.Microsecond, time.Millisecond
	m := map[string]float64{
		"wire.bytes_per_op":  ratio(float64(plain.wireBytes), ops),
		"wire.writes_per_op": ratio(float64(plain.wireWrites), ops),
		"wire.self_us.get":   st.selfMedian("wire.get", us),
		"wire.self_us.save":  st.selfMedian("wire.save", us),

		"server.dispatched_per_op": ratio(float64(plain.dispatched), ops),
		"server.sheds":             float64(plain.sheds),
		"server.deadline_sheds":    float64(plain.deadlineSheds),
		"server.queued_max":        float64(plain.queuedMax),
		"server.dispatch_ewma_us":  median(plain.ewmaUs),
		"server.cluster_dropped":   float64(plain.clusterDropped),

		"core.self_us.get":      st.selfMedian("core.get", us),
		"core.self_us.save":     st.selfMedian("core.save", us),
		"core.rows_page_ms":     st.durMedian("core.rows_page", ms),
		"core.search_joined_ms": st.durMedian("core.search_joined", ms),
		"core.scan_page_ms":     st.durMedian("core.scan_page", ms),

		"store.get_us":                   st.durMedian("store.get", us),
		"store.note_cache_hit_ratio":     ratio(float64(plain.cacheHits), float64(plain.cacheHits+plain.cacheMisses)),
		"store.records_per_flush":        ratio(float64(plain.gcRecords), float64(plain.gcFlushes)),
		"store.flushes_per_s":            ratio(float64(plain.gcFlushes), secs),
		"store.wal_bytes_per_user_byte":  ratio(float64(plain.walBytes), float64(plain.all.docsSaved)*pr.meanNoteBytes),
		"store.file_bytes_per_user_byte": pr.fileBytesPerUserByte,
		"store.dirty_pages_max":          float64(plain.dirtyMax),
		"store.scan_notes_per_s":         pr.scanNotesPerS,

		"nsf.decode_us_per_note":     pr.decodeUs,
		"nsf.decode_allocs_per_note": pr.decodeAllocs,
		"nsf.encode_us_per_note":     pr.encodeUs,

		"changefeed.refresh_ms":             st.durMedian("changefeed.refresh", ms),
		"changefeed.max_lag":                float64(plain.feedMaxLag),
		"changefeed.resyncs":                float64(plain.resyncs),
		"changefeed.applies_per_s.views":    ratio(float64(plain.applies["views"]), secs),
		"changefeed.applies_per_s.fulltext": ratio(float64(plain.applies["fulltext"]), secs),
		"changefeed.applies_per_s.unread":   ratio(float64(plain.applies["unread"]), secs),

		"view.rows_range_ms": st.durMedian("view.rows_range", ms),
		"view.update_us":     pr.viewUpdateUs,
		"view.rebuild_ms":    float64(b.times.viewRebuild) / float64(ms),

		"ft.search_ms":         st.durMedian("ft.search", ms),
		"ft.hits_per_returned": median(traced.all.ftRatio),
		"ft.update_us":         pr.ftUpdateUs,
		"ft.enable_ms":         float64(b.times.ftEnable) / float64(ms),

		"formula.selects_us_per_note": pr.selectsUs,

		"runtime.cpu_busy_ratio":     plain.rt.cpuBusy,
		"runtime.alloc_bytes_per_op": ratio(float64(plain.rt.allocBytes), ops),
		"runtime.gc_cycles_per_s":    ratio(float64(plain.rt.gcCycles), secs),
		"runtime.gc_pause_p99_us":    plain.rt.pauseP99us,

		"trace.overhead_ratio": ratio(plain.opsPerSec(), traced.opsPerSec()),
	}
	m["repl.catchup_notes"] = float64(pr.catchupNotes)
	m["repl.catchup_ms"] = float64(pr.catchupTime) / float64(ms)
	return m
}
