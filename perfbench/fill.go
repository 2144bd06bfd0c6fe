package main

import (
	"time"

	"repro/internal/acl"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
)

// fillOps is how many operations of each missing kind fillRungs issues.
const fillOps = 5

// fillRungs walks, with the load stopped, the ladders of the operation
// kinds the workload's own mix does not issue (ingest sends no Get or
// ViewPage; office and ingest neither search nor scan), so a traced run
// measures every rung on every workload: under load where the mix issues
// the operation, with the load stopped where it does not. Index hits per
// returned search hit are added to traced.
func fillRungs(b *bench, tr *tracer, traced *phaseResult) {
	have := map[string]bool{}
	for _, s := range tr.snapshot() {
		have[s.Name] = true
	}
	db := b.primary()
	db.Refresh()
	rdb, err := b.conns[0].OpenDB(dbPath)
	if err != nil {
		b.chk.failf("fill: open %s: %v", dbPath, err)
		return
	}
	sess := db.Session(benchUser)
	r := newRec()
	if !have["wire.get"] {
		var unids []nsf.UNID
		if err := db.ScanAll(func(n *nsf.Note) bool {
			if !n.IsStub() && n.Class == nsf.ClassDocument {
				unids = append(unids, n.OID.UNID)
			}
			return len(unids) < fillOps
		}); err != nil {
			b.chk.failf("fill: ScanAll: %v", err)
		}
		for _, u := range unids {
			var got *nsf.Note
			_, req, root := timed(tr, "wire.get", func() { got, err = rdb.Get(u) })
			if err != nil || got.OID.UNID != u {
				b.chk.failf("fill: Get %s: %v", u, err)
				return
			}
			getLadder(b, sess, tr, req, root, u)
		}
	}
	if !have["core.rows_page"] {
		for i := 0; i < fillOps; i++ {
			viewPage(b, rdb, sess, inboxView, 0, officePageRows, r, tr, true, func(p wire.ViewPage) {
				if len(p.Rows) == 0 || p.Start != 0 {
					b.chk.failf("fill: first page of %s has %d rows from %d", inboxView, len(p.Rows), p.Start)
				}
			})
		}
	}
	if !have["core.search_joined"] {
		cols := []string{"Subject", "From"}
		for i := 0; i < fillOps; i++ {
			q := bulkQueries[i%len(bulkQueries)]
			var p wire.SearchPage
			_, req, root := timed(tr, "wire.search", func() { p, err = rdb.SearchPage(q, cols, 0, searchHits) })
			if err != nil || p.Total == 0 || len(p.Hits) != min(searchHits, p.Total) {
				b.chk.failf("fill: search %q returned %d of %d hits: %v", q, len(p.Hits), p.Total, err)
				return
			}
			searchLadder(b, sess, tr, req, root, q, cols, p, r)
		}
	}
	if !have["core.scan_page"] {
		opts := wire.ScanOptions{Formula: scanFormula, Columns: scanColumns, Limit: scanPageRows}
		var after []byte
		for i := 0; i < fillOps; i++ {
			var p wire.ScanPage
			_, req, root := timed(tr, "wire.scan_page", func() { p, err = rdb.ScanPage(opts, after) })
			if err != nil || len(p.Rows) == 0 {
				b.chk.failf("fill: scan page %d returned %d rows: %v", i, len(p.Rows), err)
				return
			}
			for _, row := range p.Rows {
				if !scanSelected(row) {
					b.chk.failf("fill: scan returned unselected row %s", row.UNID)
					return
				}
			}
			scanLadder(b, sess, tr, req, root, p)
			after = nil
			if p.More {
				after = p.Cursor
			}
		}
	}
	if r.failed > 0 {
		b.chk.failf("fill: %d reads failed", r.failed)
	}
	traced.all.ftRatio = append(traced.all.ftRatio, r.ftRatio...)
}

// replProbe times a catch-up pull on a workload without a cluster mate:
// it boots a mate, makes it a replica with one pull, then times a second
// pull, which like ingest's final catch-up has nothing left to fetch.
// The mate is closed with the rest of the set-up.
func replProbe(b *bench) (notes int, took time.Duration, err error) {
	src := b.nodes[0]
	b.primary().ACL().Set(mateName, acl.Manager)
	mate, err := bootNode(b.base, mateName, newDirectory(), server.Options{}, b.primary().ReplicaID())
	if err != nil {
		return 0, 0, err
	}
	b.nodes = append(b.nodes, mate)
	if _, err := mate.srv.ReplicateWith(src.srv.Name(), src.addr, dbPath, repl.Options{PullOnly: true}); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	st, err := mate.srv.ReplicateWith(src.srv.Name(), src.addr, dbPath, repl.Options{PullOnly: true})
	took = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	fpS, errS := mesh.FingerprintDB(b.primary())
	fpM, errM := mesh.FingerprintDB(mate.db)
	if errS != nil || errM != nil || fpS != fpM {
		b.chk.failf("repl probe: source and mate differ after two pulls (%+v vs %+v, %v %v)", fpS, fpM, errS, errM)
	}
	return st.NotesFetched, took, nil
}
