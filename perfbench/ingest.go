package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
)

// ingest: WAL append, group commit and fsync, changefeed fan-out and
// cluster replication, on a durable primary with a cluster mate.
const (
	ingestDocs  = 5000
	ingestViews = 4
	ingestBatch = 64
	// batchEvery paces client B to at most one batch per interval (1,000
	// documents a second). Unpaced on two cores, B outruns cluster push:
	// the pusher's 10,000-event queue overflows, pushes are dropped, and
	// replica lag becomes queue-drain time instead of push latency.
	batchEvery      = 64 * time.Millisecond
	groupCommit     = 200 * time.Microsecond // the documented setting
	indexLagEvery   = 4                      // every 4th single save samples index lag
	settleTimeout   = 20 * time.Second       // bounds the final barrier
	primaryName     = "primary"
	mateName        = "mate"
	ingestCreatePct = 70
)

// ackedDoc is what the benchmark had acknowledged for one document.
type ackedDoc struct {
	seq uint32
	sum uint64
}

type lagKey struct {
	unid nsf.UNID
	seq  uint32
}

type ingest struct {
	b      *bench
	sample []*nsf.Note

	a *saver
	c *batcher

	// pending maps each single save in flight toward the mate to the time
	// it was issued; the mate's change subscriber turns arrivals into
	// replica-lag samples.
	pmu     sync.Mutex
	pending map[lagKey]time.Time
	missed  int // saves cluster push never delivered by the final barrier

	catchupNotes int
	catchupTime  time.Duration
}

func setupIngest(b *bench, docs []*nsf.Note) (mix, error) {
	d := newDirectory(primaryName, mateName)
	replica := nsf.NewReplicaID()
	primary, err := bootNode(b.base, primaryName, d,
		server.Options{SyncWAL: true, GroupCommitWindow: groupCommit}, replica, mateName)
	if err != nil {
		return nil, err
	}
	b.nodes = append(b.nodes, primary)
	mate, err := bootNode(b.base, mateName, d, server.Options{}, replica, primaryName)
	if err != nil {
		return nil, err
	}
	b.nodes = append(b.nodes, mate)
	if b.times, err = seedDB(primary.db, docs, ingestViews); err != nil {
		return nil, err
	}
	// The mate becomes a replica by one pull, which also records the
	// replication history the final catch-up pull continues from.
	if _, err := mate.srv.ReplicateWith(primaryName, primary.addr, dbPath, repl.Options{PullOnly: true}); err != nil {
		return nil, fmt.Errorf("seed mate: %w", err)
	}
	w := &ingest{b: b, sample: docs[:probeNotes], pending: make(map[lagKey]time.Time)}
	mate.db.OnChange(w.arrived)
	primary.srv.EnableClustering(map[string]string{mateName: mate.addr})

	var rdbs [2]*wire.RemoteDB
	for i := range rdbs {
		c, rdb, err := dialClient(primary.addr, b.cc)
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, c)
		rdbs[i] = rdb
	}
	sa := clientSeed(b.seed, 0)
	rng := rand.New(rand.NewSource(sa))
	w.a = &saver{w: w, rdb: rdbs[0], sess: primary.db.Session(benchUser), rng: rng,
		zipf: newZipfRank(rng, ingestDocs), src: newDocSource(sa + 1), fresh: newDocSource(sa + 2),
		acked: make(map[nsf.UNID]ackedDoc)}
	for _, doc := range docs {
		stored, err := primary.db.RawGet(doc.OID.UNID)
		if err != nil {
			return nil, err
		}
		w.a.own = append(w.a.own, stored)
		w.a.acked[stored.OID.UNID] = ackedDoc{seq: stored.OID.Seq, sum: contentSum(stored)}
	}
	w.c = &batcher{w: w, rdb: rdbs[1], src: newDocSource(clientSeed(b.seed, 1) + 1), acked: make(map[nsf.UNID]uint64)}
	return w, nil
}

// arrived runs on the mate's change subscriber for every applied note.
func (w *ingest) arrived(n *nsf.Note) {
	k := lagKey{n.OID.UNID, n.OID.Seq}
	w.pmu.Lock()
	t0, ok := w.pending[k]
	delete(w.pending, k)
	w.pmu.Unlock()
	if ok {
		w.b.recordLag(time.Since(t0))
	}
}

func (w *ingest) expect(k lagKey) {
	w.pmu.Lock()
	w.pending[k] = time.Now()
	w.pmu.Unlock()
}

func (w *ingest) forget(k lagKey) {
	w.pmu.Lock()
	delete(w.pending, k)
	w.pmu.Unlock()
}

func (w *ingest) loops() []step { return []step{w.a.step, w.c.step} }

// drawIngest draws client A's next save: true for a Create (70%), false
// for an Update.
func drawIngest(rng *rand.Rand) bool { return rng.Intn(100) < ingestCreatePct }

// saver is client A: one document per call, creates and updates.
type saver struct {
	w     *ingest
	rdb   *wire.RemoteDB
	sess  *core.Session
	rng   *rand.Rand
	zipf  zipfRank
	src   *docSource
	fresh *docSource
	own   []*nsf.Note // last acked version of each document, oldest first
	acked map[nsf.UNID]ackedDoc
	saves int
}

func (s *saver) step(r *rec, tr *tracer, ladder bool) {
	var n *nsf.Note
	var idx int
	create := drawIngest(s.rng)
	if create {
		n = s.src.next()
	} else {
		idx = len(s.own) - 1 - s.zipf.draw(len(s.own))
		n = s.own[idx].Clone()
		s.src.gen.Mutate(n)
	}
	want := n.OID.Seq + 1
	if create {
		want = 1
	}
	k := lagKey{n.OID.UNID, want}
	s.w.expect(k)
	var err error
	dur, req, root := timed(tr, "wire.save", func() {
		if create {
			err = s.rdb.Create(n)
		} else {
			err = s.rdb.Update(n)
		}
	})
	if err != nil {
		s.w.forget(k)
		r.opFailed("save", err)
		return
	}
	r.ops++
	r.docsSaved++
	r.add("save", dur)
	if n.OID.Seq != want {
		s.w.b.chk.failf("ingest: save of %s stored seq %d, want %d", n.OID.UNID, n.OID.Seq, want)
	}
	s.acked[n.OID.UNID] = ackedDoc{seq: n.OID.Seq, sum: contentSum(n)}
	if create {
		s.own = append(s.own, n)
	} else {
		s.own[idx] = n
	}
	s.saves++
	if s.saves%indexLagEvery == 0 {
		t0 := time.Now()
		s.w.b.primary().Refresh()
		r.add("index_lag", time.Since(t0))
	}
	if ladder {
		saveLadder(s.w.b, s.sess, s.fresh, tr, req, root)
	}
}

// batcher is client B: PutBatch calls of ingestBatch new documents, each
// sent once the previous one is acknowledged and the pacing interval has
// passed.
type batcher struct {
	w     *ingest
	rdb   *wire.RemoteDB
	src   *docSource
	acked map[nsf.UNID]uint64 // content sum of each stored document
	next  time.Time
}

func (c *batcher) step(r *rec, tr *tracer, _ bool) {
	if wait := time.Until(c.next); wait > 0 {
		time.Sleep(wait)
	}
	c.next = time.Now().Add(batchEvery)
	batch := c.src.corpus(ingestBatch)
	var stored int
	var err error
	dur, _, _ := timed(tr, "wire.put_batch", func() { stored, err = c.rdb.PutBatch(batch) })
	if err != nil {
		r.opFailed("PutBatch", err)
		return
	}
	r.ops++
	r.add("batch", dur)
	r.batchDocs += stored
	r.docsSaved += stored
	if stored != len(batch) {
		c.w.b.chk.failf("ingest: PutBatch stored %d of %d documents", stored, len(batch))
	}
	for _, n := range batch[:stored] {
		c.acked[n.OID.UNID] = contentSum(n)
	}
}

// verify waits for cluster push to settle, pulls once from the primary to
// the mate to count what push missed, then checks that every acked
// document reads back on the primary and that both replicas hold the same
// versions.
func (w *ingest) verify() {
	chk := w.b.chk
	primary, mate := w.b.nodes[0], w.b.nodes[1]
	// Final barrier: every change consumer on the primary (the cluster
	// hook included) has seen every save, the pushers have drained, and
	// the mate has applied what they delivered.
	primary.db.Refresh()
	if err := primary.srv.Quiesce(settleTimeout); err != nil {
		chk.failf("ingest: final barrier: %v", err)
	}
	primary.srv.Resume()
	mate.db.Refresh()
	w.pmu.Lock()
	w.missed = len(w.pending)
	w.pmu.Unlock()
	t0 := time.Now()
	st, err := mate.srv.ReplicateWith(primaryName, primary.addr, dbPath, repl.Options{PullOnly: true})
	w.catchupTime = time.Since(t0)
	w.catchupNotes = st.NotesFetched
	if err != nil {
		chk.failf("ingest: catch-up replication: %v", err)
		return
	}
	primary.db.Refresh()
	mate.db.Refresh()
	fpP, errP := mesh.FingerprintDB(primary.db)
	fpM, errM := mesh.FingerprintDB(mate.db)
	if errP != nil || errM != nil || fpP != fpM {
		chk.failf("ingest: primary and mate differ after the final barrier (%+v vs %+v, %v %v)", fpP, fpM, errP, errM)
	}
	sess := primary.db.Session(benchUser)
	for u, a := range w.a.acked {
		got, err := sess.Get(u)
		if err != nil || got.OID.Seq != a.seq || contentSum(got) != a.sum {
			chk.failf("ingest: acked save %s does not read back on the primary (err %v)", u, err)
			return
		}
	}
	for u, sum := range w.c.acked {
		got, err := sess.Get(u)
		if err != nil || got.OID.Seq != 1 || contentSum(got) != sum {
			chk.failf("ingest: acked batch document %s does not read back on the primary (err %v)", u, err)
			return
		}
	}
}

func (w *ingest) sampleNotes() []*nsf.Note { return w.sample }

func (w *ingest) scanFormulas() []string { return []string{`SELECT Form = "Memo"`} }
