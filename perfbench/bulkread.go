package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/server"
	"repro/internal/wire"
)

// bulkread: view render, FT query/join, formula evaluation and note decode
// over a store larger than both caches. No writes.
const (
	bulkDocs      = 20000 // ≈30 MB of pages: ~2× the pool, ~5× the note cache
	scrollRows    = 256
	searchHits    = 50
	scanPageRows  = 256
	categoryView  = "bycategory"
	bulkViewCount = 2
)

// bulkQueries is the fixed full-text query set, the same for every seed:
// broad terms and a conjunction that match nearly every memo, so each
// joined search ranks and joins ~20k hits to return 50. Queries of mixed
// breadth differ in cost by 10x, and the median of such a mix jumps
// between them from run to run.
var bulkQueries = []string{"meeting", "project", "deadline", "review", "project deadline"}

// scanFormula is the scan the workload repeats; about one memo in six
// matches, so a page of 256 rows evaluates it on ~1,600 memos. scanMatch
// is the same selection in Go, for the expected match count.
const scanFormula = `SELECT From = "ada" | Priority = 9`

func scanMatch(from string, priority float64) bool { return from == "ada" || priority == 9 }

var scanColumns = []string{"Category", "From", "Priority", "Subject"}

type bulkread struct {
	b      *bench
	docs   []*nsf.Note
	corpus map[nsf.UNID]bool
	sample []*nsf.Note

	wantRows  int            // rows of a full categorized scroll
	wantHits  map[string]int // expected hit count per query
	wantMatch int            // expected match count of the scan
	scroller  *scroller
	searcher  *searcher
}

func setupBulkread(b *bench, docs []*nsf.Note) (mix, error) {
	d := newDirectory(mateName) // a mate may pull in the repl probe
	n, err := bootNode(b.base, "bulkread", d, server.Options{}, nsf.NewReplicaID())
	if err != nil {
		return nil, err
	}
	b.nodes = append(b.nodes, n)
	if b.times, err = seedDB(n.db, docs, bulkViewCount); err != nil {
		return nil, err
	}
	w := &bulkread{b: b, docs: docs, corpus: make(map[nsf.UNID]bool, len(docs)), sample: docs[:probeNotes]}
	cats := map[string]bool{}
	for _, doc := range docs {
		w.corpus[doc.OID.UNID] = true
		cats[doc.Text("Category")] = true
	}
	w.wantRows = len(docs) + len(cats)
	var rdbs [2]*wire.RemoteDB
	for i := range rdbs {
		c, rdb, err := dialClient(n.addr, b.cc)
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, c)
		rdbs[i] = rdb
	}
	w.scroller = &scroller{w: w, rdb: rdbs[0], sess: n.db.Session(benchUser)}
	w.scroller.reset()
	w.searcher = &searcher{w: w, rdb: rdbs[1], sess: n.db.Session(benchUser), seen: map[nsf.UNID]bool{}}
	return w, nil
}

// prepare computes the expected search and scan counts from the generated
// corpus. It runs once per run, outside set-up timing.
func (w *bulkread) prepare() error {
	docs := w.docs
	scan := func(fn func(*nsf.Note) bool) error {
		for _, d := range docs {
			if !fn(d) {
				break
			}
		}
		return nil
	}
	w.wantHits = make(map[string]int, len(bulkQueries))
	for _, q := range bulkQueries {
		hits, err := ft.ScanSearch(q, scan)
		if err != nil {
			return fmt.Errorf("expected hits for %q: %w", q, err)
		}
		w.wantHits[q] = len(hits)
	}
	for _, d := range docs {
		if scanMatch(d.Text("From"), d.Number("Priority")) {
			w.wantMatch++
		}
	}
	w.docs = nil // the corpus is not needed again; keep it out of the heap
	return nil
}

func (w *bulkread) loops() []step { return []step{w.scroller.step, w.searcher.step} }

// scroller pages the categorized view front to back and checks that one
// full scroll yields every row exactly once, in order.
type scroller struct {
	w    *bulkread
	rdb  *wire.RemoteDB
	sess *core.Session

	start, rows, docs int
	cat, subject      string
	seen              map[nsf.UNID]bool
	scrolls           int
}

func (s *scroller) reset() {
	s.start, s.rows, s.docs, s.cat, s.subject = 0, 0, 0, "", ""
	s.seen = make(map[nsf.UNID]bool, bulkDocs)
}

func (s *scroller) step(r *rec, tr *tracer, ladder bool) {
	chk := s.w.b.chk
	viewPage(s.w.b, s.rdb, s.sess, categoryView, s.start, scrollRows, r, tr, ladder, func(p wire.ViewPage) {
		if p.Total != s.w.wantRows || p.Start != s.start {
			chk.failf("bulkread: page at %d reports start %d total %d, want total %d", s.start, p.Start, p.Total, s.w.wantRows)
		}
		for _, row := range p.Rows {
			s.checkRow(chk, row)
		}
		s.rows += len(p.Rows)
		s.start = p.Next
		if !p.More {
			if s.rows != s.w.wantRows || s.docs != len(s.w.corpus) {
				chk.failf("bulkread: scroll yielded %d rows and %d documents, want %d and %d", s.rows, s.docs, s.w.wantRows, len(s.w.corpus))
			}
			s.scrolls++
			s.reset()
		} else if len(p.Rows) == 0 {
			chk.failf("bulkread: empty page at %d with more rows promised", s.start)
			s.reset()
		}
	})
}

// checkRow checks a row against the scroll so far: categories once each in
// collation order, documents once each, sorted by subject within their
// category.
func (s *scroller) checkRow(chk *checker, row wire.ViewRow) {
	if row.IsCategory {
		c := collate(row.Category)
		if row.Indent != 0 || c <= s.cat {
			chk.failf("bulkread: category %q at indent %d out of order after %q", row.Category, row.Indent, s.cat)
		}
		s.cat, s.subject = c, ""
		return
	}
	if row.Indent != 1 || len(row.Columns) < 2 || !s.w.corpus[row.UNID] || s.seen[row.UNID] {
		chk.failf("bulkread: document row %s (indent %d) is unknown, repeated or malformed", row.UNID, row.Indent)
		return
	}
	s.seen[row.UNID] = true
	s.docs++
	if collate(row.Columns[0]) != s.cat {
		chk.failf("bulkread: document %s of category %q listed under %q", row.UNID, row.Columns[0], s.cat)
	}
	subj := collate(row.Columns[1])
	if subj < s.subject {
		chk.failf("bulkread: subject %q sorts before %q", row.Columns[1], s.subject)
	}
	s.subject = subj
}

// searcher alternates a joined full-text SearchPage with a page of a
// formula-filtered, projected scan.
type searcher struct {
	w    *bulkread
	rdb  *wire.RemoteDB
	sess *core.Session

	n       int // operations issued
	query   int
	cursor  []byte
	matched int
	seen    map[nsf.UNID]bool
	scans   int
}

func (s *searcher) step(r *rec, tr *tracer, ladder bool) {
	s.n++
	if s.n%2 == 1 {
		s.search(r, tr, ladder)
	} else {
		s.scanPage(r, tr, ladder)
	}
}

func (s *searcher) search(r *rec, tr *tracer, ladder bool) {
	q := bulkQueries[s.query%len(bulkQueries)]
	s.query++
	cols := []string{"Subject", "From"}
	var p wire.SearchPage
	var err error
	dur, req, root := timed(tr, "wire.search", func() { p, err = s.rdb.SearchPage(q, cols, 0, searchHits) })
	if err != nil {
		r.opFailed("SearchPage", err)
		return
	}
	r.ops++
	r.add("search", dur)
	chk := s.w.b.chk
	want := s.w.wantHits[q]
	if p.Total != want || len(p.Hits) != min(searchHits, want) {
		chk.failf("bulkread: search %q returned %d of %d hits, want %d of %d", q, len(p.Hits), p.Total, min(searchHits, want), want)
	}
	for _, h := range p.Hits {
		if !s.w.corpus[h.UNID] || len(h.Values) != 2 || h.Values[0].Type != nsf.TypeText {
			chk.failf("bulkread: search %q hit %s is unknown or lacks its joined Subject", q, h.UNID)
			break
		}
	}
	if ladder {
		searchLadder(s.w.b, s.sess, tr, req, root, q, cols, p, r)
	}
}

// searchLadder re-runs a joined search through the session, then queries
// the full-text index alone, and records how many index hits the search
// ranked per hit it returned.
func searchLadder(b *bench, sess *core.Session, tr *tracer, req, root uint64, q string, cols []string, p wire.SearchPage, r *rec) {
	var hits []ft.Result
	var err error
	core := tr.do(req, root, "core.search_joined", func() { _, err = sess.SearchJoined(q, cols) })
	if err != nil {
		b.chk.failf("ladder: SearchJoined %q: %v", q, err)
	}
	if fti := b.primary().FullText(); fti != nil {
		tr.do(req, core, "ft.search", func() { hits, err = fti.Search(q) })
		if err != nil {
			b.chk.failf("ladder: ft.Search %q: %v", q, err)
		}
		if len(p.Hits) > 0 {
			r.ftRatio = append(r.ftRatio, float64(len(hits))/float64(len(p.Hits)))
		}
	}
}

func (s *searcher) scanPage(r *rec, tr *tracer, ladder bool) {
	opts := wire.ScanOptions{Formula: scanFormula, Columns: scanColumns, Limit: scanPageRows}
	after := s.cursor
	var p wire.ScanPage
	var err error
	dur, req, root := timed(tr, "wire.scan_page", func() { p, err = s.rdb.ScanPage(opts, after) })
	if err != nil {
		r.opFailed("ScanPage", err)
		return
	}
	r.ops++
	r.add("scan_page", dur)
	s.checkScanPage(p)
	if ladder {
		scanLadder(s.w.b, s.sess, tr, req, root, p)
	}
}

// checkScanPage checks every projected row against the formula's Go
// predicate and, when the scan ends, the match count against the corpus.
func (s *searcher) checkScanPage(p wire.ScanPage) {
	chk := s.w.b.chk
	for _, row := range p.Rows {
		if !scanSelected(row) || !s.w.corpus[row.UNID] || s.seen[row.UNID] {
			chk.failf("bulkread: scan returned row %s that is unknown, repeated or unselected", row.UNID)
			break
		}
		s.seen[row.UNID] = true
	}
	s.matched += len(p.Rows)
	s.cursor = p.Cursor
	if !p.More {
		if s.matched != s.w.wantMatch {
			chk.failf("bulkread: scan matched %d documents, want %d", s.matched, s.w.wantMatch)
		}
		s.scans++
		s.cursor, s.matched, s.seen = nil, 0, map[nsf.UNID]bool{}
	}
}

// scanSelected reports whether a projected scan row carries every column
// and satisfies the scan's selection.
func scanSelected(row wire.ScanRow) bool {
	v := row.Values
	ok := len(v) == len(scanColumns) && len(v[2].Numbers) == 1 && len(v[0].Text) == 1 && len(v[1].Text) == 1
	return ok && scanMatch(v[1].Text[0], v[2].Numbers[0])
}

// scanLadder re-runs the page through the session's scan, then evaluates
// the selection formula alone over the same candidate documents.
func scanLadder(b *bench, sess *core.Session, tr *tracer, req, root uint64, p wire.ScanPage) {
	chk := b.chk
	sel, err := formula.Compile(scanFormula)
	if err != nil {
		chk.failf("ladder: compile %q: %v", scanFormula, err)
		return
	}
	var after, last nsf.NoteID
	if len(p.Rows) > 0 {
		after, last = p.Rows[0].NoteID-1, p.Rows[len(p.Rows)-1].NoteID
	}
	sent := 0
	core := tr.do(req, root, "core.scan_page", func() {
		err = sess.ScanFrom(after, sel, func(*nsf.Note) bool {
			sent++
			return sent < len(p.Rows)
		})
	})
	if err != nil {
		chk.failf("ladder: ScanFrom: %v", err)
		return
	}
	var cands []*nsf.Note
	if err := sess.ScanFrom(after, nil, func(n *nsf.Note) bool {
		if n.ID > last {
			return false
		}
		cands = append(cands, n)
		return true
	}); err != nil {
		chk.failf("ladder: ScanFrom candidates: %v", err)
		return
	}
	fctx := &formula.Context{UserName: benchUser}
	tr.do(req, core, "formula.selects", func() {
		for _, n := range cands {
			if _, err := sel.Selects(n, fctx); err != nil {
				chk.failf("ladder: Selects: %v", err)
				return
			}
		}
	})
}

// verify completes a scroll and a scan pass if the timer cut the first
// ones short, so their end-of-sequence checks run at least once.
func (w *bulkread) verify() {
	r := newRec()
	for w.scroller.scrolls == 0 && !w.b.chk.failed() {
		w.scroller.step(r, nil, false)
	}
	for w.searcher.scans == 0 && !w.b.chk.failed() {
		w.searcher.scanPage(r, nil, false)
	}
	if r.failed > 0 {
		w.b.chk.failf("bulkread: %d reads failed while completing the last scroll or scan", r.failed)
	}
}

func (w *bulkread) sampleNotes() []*nsf.Note { return w.sample }

func (w *bulkread) scanFormulas() []string { return []string{scanFormula} }
