package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// The ladder: on a traced run, a fixed sample of operations re-issues the
// same work one layer down at a time after its wire call returns, each rung
// a span whose parent is the rung above.

// timed runs fn as the root span of a new request when traced, and returns
// its duration and the span's identifier (0 untraced).
func timed(tr *tracer, name string, fn func()) (time.Duration, uint64, uint64) {
	if tr == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0), 0, 0
	}
	req := tr.request()
	t0 := time.Now()
	id := tr.do(req, 0, name, fn)
	return time.Since(t0), req, id
}

// getLadder re-issues a Get one layer down at a time: the session (ACL and
// stub checks), then the store.
func getLadder(b *bench, sess *core.Session, tr *tracer, req, root uint64, unid nsf.UNID) {
	var err error
	core := tr.do(req, root, "core.get", func() { _, err = sess.Get(unid) })
	if err != nil {
		b.chk.failf("ladder: Session.Get %s: %v", unid, err)
	}
	tr.do(req, core, "store.get", func() { _, err = b.primary().RawGet(unid) })
	if err != nil {
		b.chk.failf("ladder: RawGet %s: %v", unid, err)
	}
}

// saveLadder first waits, with the refresh barrier, for the change
// consumers to apply the save just acknowledged; then it writes fresh
// documents of the same shape one layer down at a time: a session Create,
// then a raw store put.
func saveLadder(b *bench, sess *core.Session, fresh *docSource, tr *tracer, req, root uint64) {
	db := b.primary()
	tr.do(req, 0, "changefeed.refresh", db.Refresh)
	n := fresh.next()
	var err error
	core := tr.do(req, root, "core.save", func() { err = sess.Create(n) })
	if err != nil {
		b.chk.failf("ladder: Session.Create: %v", err)
	}
	raw := fresh.next()
	now := db.Clock().Now()
	raw.OID.Seq, raw.OID.SeqTime, raw.Created, raw.Modified = 1, now, now, now
	tr.do(req, core, "store.put", func() { err = db.RawPut(raw) })
	if err != nil {
		b.chk.failf("ladder: RawPut: %v", err)
	}
}

// viewPage issues one ViewPage and, on a ladder sample, re-renders the
// same rows through the session and then the view index directly.
func viewPage(b *bench, rdb *wire.RemoteDB, sess *core.Session, name string, start, limit int, r *rec, tr *tracer, ladder bool, check func(wire.ViewPage)) (wire.ViewPage, bool) {
	var p wire.ViewPage
	var err error
	dur, req, root := timed(tr, "wire.view_page", func() { p, err = rdb.ViewPage(name, start, limit) })
	if err != nil {
		r.opFailed("ViewPage", err)
		return p, false
	}
	r.ops++
	r.add("view_page", dur)
	check(p)
	if ladder {
		var lerr error
		core := tr.do(req, root, "core.rows_page", func() { _, _, lerr = sess.RowsPage(name, start, limit) })
		if lerr != nil {
			b.chk.failf("ladder: RowsPage %s: %v", name, lerr)
		}
		if ix, ok := b.primary().ViewStale(name); ok {
			tr.do(req, core, "view.rows_range", func() { ix.RowsRange(nil, start, limit) })
		}
	}
	return p, true
}
