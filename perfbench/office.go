package main

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/server"
	"repro/internal/wire"
)

// office: the everyday point path over a store that fits both caches.
const (
	officeDocs     = 3000 // under the 4,096-entry note cache and 16 MiB pool
	officePageRows = 64   // "open the inbox"
	officeMinDocs  = 100  // a client never deletes below this many
	inboxView      = "bysubject"
)

// Office operation kinds, drawn with the mix's percentages.
const (
	opGet = iota
	opUpdate
	opCreate
	opDelete
	opViewPage
)

// drawOffice draws the next office operation: 75% Get, 12% Update, 5%
// Create, 5% Delete, 3% first-page ViewPage.
func drawOffice(rng *rand.Rand) int {
	switch p := rng.Intn(100); {
	case p < 75:
		return opGet
	case p < 87:
		return opUpdate
	case p < 92:
		return opCreate
	case p < 97:
		return opDelete
	default:
		return opViewPage
	}
}

// officeDoc is the benchmark's record of the last version it had acked.
type officeDoc struct {
	note *nsf.Note
	sum  uint64
}

// officeClient owns half the documents: each client reads and writes only
// its own, so the version it last had acked is the one a read must return.
type officeClient struct {
	b       *bench
	rdb     *wire.RemoteDB
	sess    *core.Session
	rng     *rand.Rand
	zipf    zipfRank
	src     *docSource // creates and edits
	fresh   *docSource // documents written by ladder rungs
	docs    []*officeDoc
	deleted []nsf.UNID
}

type office struct {
	b       *bench
	clients []*officeClient
	sample  []*nsf.Note
}

func setupOffice(b *bench, docs []*nsf.Note) (mix, error) {
	d := newDirectory(mateName) // a mate may pull in the repl probe
	n, err := bootNode(b.base, "office", d, server.Options{}, nsf.NewReplicaID())
	if err != nil {
		return nil, err
	}
	b.nodes = append(b.nodes, n)
	if b.times, err = seedDB(n.db, docs, 2); err != nil {
		return nil, err
	}
	w := &office{b: b, sample: docs[:min(len(docs), probeNotes)]}
	for i := 0; i < 2; i++ {
		c, rdb, err := dialClient(n.addr, b.cc)
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, c)
		cs := clientSeed(b.seed, i)
		rng := rand.New(rand.NewSource(cs))
		oc := &officeClient{
			b: b, rdb: rdb, sess: n.db.Session(benchUser), rng: rng,
			zipf:  newZipfRank(rng, officeDocs/2),
			src:   newDocSource(cs + 1),
			fresh: newDocSource(cs + 2),
		}
		for j := i; j < len(docs); j += 2 {
			stored, err := n.db.RawGet(docs[j].OID.UNID)
			if err != nil {
				return nil, err
			}
			oc.docs = append(oc.docs, &officeDoc{note: stored, sum: contentSum(stored)})
		}
		w.clients = append(w.clients, oc)
	}
	return w, nil
}

// clientSeed derives client i's stream seed from the run seed.
func clientSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 1 }

func (w *office) loops() []step {
	out := make([]step, len(w.clients))
	for i, c := range w.clients {
		out[i] = c.step
	}
	return out
}

func (c *officeClient) step(r *rec, tr *tracer, ladder bool) {
	op := drawOffice(c.rng)
	if (op == opDelete) && len(c.docs) <= officeMinDocs {
		op = opCreate
	}
	switch op {
	case opGet:
		c.get(r, tr, ladder)
	case opUpdate:
		c.update(r, tr, ladder)
	case opCreate:
		c.create(r, tr, ladder)
	case opDelete:
		c.remove(r)
	case opViewPage:
		viewPage(c.b, c.rdb, c.sess, inboxView, 0, officePageRows, r, tr, ladder, func(p wire.ViewPage) {
			checkInboxPage(c.b.chk, p)
		})
	}
}

func (c *officeClient) get(r *rec, tr *tracer, ladder bool) {
	d := c.docs[len(c.docs)-1-c.zipf.draw(len(c.docs))]
	unid := d.note.OID.UNID
	var got *nsf.Note
	var err error
	dur, req, root := timed(tr, "wire.get", func() { got, err = c.rdb.Get(unid) })
	if err != nil {
		r.opFailed("Get", err)
		return
	}
	r.ops++
	r.add("get", dur)
	if got.OID.Seq != d.note.OID.Seq || contentSum(got) != d.sum {
		c.b.chk.failf("office: Get %s returned seq %d, want the acked seq %d with its content", unid, got.OID.Seq, d.note.OID.Seq)
	}
	if ladder {
		getLadder(c.b, c.sess, tr, req, root, unid)
	}
}

func (c *officeClient) update(r *rec, tr *tracer, ladder bool) {
	d := c.docs[len(c.docs)-1-c.zipf.draw(len(c.docs))]
	n := d.note.Clone()
	c.src.gen.Mutate(n)
	var err error
	dur, req, root := timed(tr, "wire.save", func() { err = c.rdb.Update(n) })
	if err != nil {
		r.opFailed("Update", err)
		return
	}
	r.ops++
	r.docsSaved++
	r.add("save", dur)
	if n.OID.Seq != d.note.OID.Seq+1 {
		c.b.chk.failf("office: Update %s stored seq %d, want %d", n.OID.UNID, n.OID.Seq, d.note.OID.Seq+1)
	}
	d.note, d.sum = n, contentSum(n)
	if ladder {
		saveLadder(c.b, c.sess, c.fresh, tr, req, root)
	}
}

func (c *officeClient) create(r *rec, tr *tracer, ladder bool) {
	n := c.src.next()
	var err error
	dur, req, root := timed(tr, "wire.save", func() { err = c.rdb.Create(n) })
	if err != nil {
		r.opFailed("Create", err)
		return
	}
	r.ops++
	r.docsSaved++
	r.add("save", dur)
	if n.OID.Seq != 1 {
		c.b.chk.failf("office: Create %s stored seq %d, want 1", n.OID.UNID, n.OID.Seq)
	}
	c.docs = append(c.docs, &officeDoc{note: n, sum: contentSum(n)})
	if ladder {
		saveLadder(c.b, c.sess, c.fresh, tr, req, root)
	}
}

// remove deletes the client's oldest document.
func (c *officeClient) remove(r *rec) {
	d := c.docs[0]
	t0 := time.Now()
	err := c.rdb.Delete(d.note.OID.UNID)
	dur := time.Since(t0)
	if err != nil {
		r.opFailed("Delete", err)
		return
	}
	r.ops++
	r.add("save", dur)
	c.docs = c.docs[1:]
	c.deleted = append(c.deleted, d.note.OID.UNID)
}

// checkInboxPage checks a first inbox page: document rows only, as many as
// the page allows, in the view's collation order.
func checkInboxPage(chk *checker, p wire.ViewPage) {
	if want := min(officePageRows, p.Total); len(p.Rows) != want || p.Start != 0 {
		chk.failf("office: inbox page has %d rows from %d, want %d from 0 (total %d)", len(p.Rows), p.Start, want, p.Total)
		return
	}
	prev := ""
	for i, row := range p.Rows {
		if row.IsCategory || len(row.Columns) == 0 {
			chk.failf("office: inbox row %d is not a document row", i)
			return
		}
		s := collate(row.Columns[0])
		if s < prev {
			chk.failf("office: inbox row %d %q sorts before row %d", i, row.Columns[0], i-1)
			return
		}
		prev = s
	}
}

// verify re-reads every live document in-process against the version last
// acked, and checks that deleted documents stay deleted.
func (w *office) verify() {
	for _, c := range w.clients {
		for _, d := range c.docs {
			got, err := c.sess.Get(d.note.OID.UNID)
			if err != nil || got.OID.Seq != d.note.OID.Seq || contentSum(got) != d.sum {
				w.b.chk.failf("office: final read of %s does not match the last acked version (err %v)", d.note.OID.UNID, err)
				return
			}
		}
		for _, u := range c.deleted {
			if _, err := c.sess.Get(u); !errors.Is(err, core.ErrNotFound) {
				w.b.chk.failf("office: deleted %s reads back (err %v)", u, err)
				return
			}
		}
	}
}

func (w *office) sampleNotes() []*nsf.Note { return w.sample }

func (w *office) scanFormulas() []string { return []string{`SELECT Form = "Memo"`} }
