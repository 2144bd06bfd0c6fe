package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/server"
	"repro/internal/view"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	benchUser   = "bench"
	benchSecret = "bench-secret"
	dbPath      = "apps/bench.nsf"
	// bodyBytes sizes every generated memo at about 1 KB.
	bodyBytes = 1024
	// seedBatch is how many documents one in-process PutBatch seeds.
	seedBatch = 256
)

// node is one in-process server with the benchmark database open.
type node struct {
	srv  *server.Server
	db   *core.Database
	addr string
}

// bootNode starts a server named name on loopback with the benchmark
// database open under replica, granting the benchmark user and the given
// peer servers access.
func bootNode(base, name string, d *dir.Directory, opts server.Options, replica nsf.ReplicaID, peers ...string) (*node, error) {
	opts.Name = name
	opts.DataDir = filepath.Join(base, name)
	opts.Directory = d
	opts.PeerSecret = name + "-secret"
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	db, err := srv.OpenDB(dbPath, core.Options{Title: "bench", ReplicaID: replica})
	if err != nil {
		srv.Close()
		return nil, err
	}
	db.ACL().Set(benchUser, acl.Editor)
	for _, p := range peers {
		db.ACL().Set(p, acl.Manager)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, db: db, addr: addr}, nil
}

// newDirectory registers the benchmark user and the named servers.
func newDirectory(servers ...string) *dir.Directory {
	d := dir.New()
	d.AddUser(dir.User{Name: benchUser, Secret: benchSecret})
	for _, s := range servers {
		d.AddUser(dir.User{Name: s, Secret: s + "-secret"})
	}
	return d
}

// dialClient opens one benchmark client connection through the counting
// dialer and binds the benchmark database.
func dialClient(addr string, cc *connCounter) (*wire.Client, *wire.RemoteDB, error) {
	c, err := wire.DialOptions(addr, benchUser, benchSecret, wire.Options{Dialer: cc.dial})
	if err != nil {
		return nil, nil, err
	}
	rdb, err := c.OpenDB(dbPath)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, rdb, nil
}

// viewDefs returns the first n of the benchmark's view definitions: the
// Subject-sorted inbox, the Category-categorized view with Priority
// totals, then By Author and By Priority.
func viewDefs(n int) ([]*view.Definition, error) {
	all := []struct {
		name string
		cols []view.Column
	}{
		{"bysubject", []view.Column{{Title: "Subject", ItemName: "Subject", Sorted: true}, {Title: "From", ItemName: "From"}}},
		{"bycategory", []view.Column{
			{Title: "Category", ItemName: "Category", Categorized: true},
			{Title: "Subject", ItemName: "Subject", Sorted: true},
			{Title: "Priority", ItemName: "Priority", Totals: true}}},
		{"byauthor", []view.Column{{Title: "From", ItemName: "From", Sorted: true}, {Title: "Subject", ItemName: "Subject", Sorted: true}}},
		{"bypriority", []view.Column{{Title: "Priority", ItemName: "Priority", Sorted: true, Descending: true}, {Title: "Subject", ItemName: "Subject"}}},
	}
	var out []*view.Definition
	for _, v := range all[:n] {
		def, err := view.NewDefinition(v.name, `SELECT Form = "Memo"`, v.cols...)
		if err != nil {
			return nil, err
		}
		out = append(out, def)
	}
	return out, nil
}

// setupTimes records how long the index builds of one set-up took.
type setupTimes struct {
	viewRebuild time.Duration // the categorized view's build
	ftEnable    time.Duration
}

// seedDB stores docs through an in-process session, then builds views and
// the full-text index over them: one rebuild beats per-document upkeep.
func seedDB(db *core.Database, docs []*nsf.Note, views int) (setupTimes, error) {
	var st setupTimes
	sess := db.Session(benchUser)
	for i := 0; i < len(docs); i += seedBatch {
		end := min(i+seedBatch, len(docs))
		batch := make([]*nsf.Note, 0, end-i)
		for _, n := range docs[i:end] {
			batch = append(batch, n.Clone())
		}
		if applied, err := sess.PutBatch(batch); err != nil || applied != len(batch) {
			return st, fmt.Errorf("seed: stored %d of %d: %v", applied, len(batch), err)
		}
	}
	defs, err := viewDefs(views)
	if err != nil {
		return st, err
	}
	for _, def := range defs {
		t0 := time.Now()
		if err := db.AddView(nil, def); err != nil {
			return st, err
		}
		if def.Name == "bycategory" {
			st.viewRebuild = time.Since(t0)
		}
	}
	t0 := time.Now()
	if err := db.EnableFullText(); err != nil {
		return st, err
	}
	st.ftEnable = time.Since(t0)
	return st, nil
}

// unidFrom draws a UNID from rng, so a seed fixes document identities too.
func unidFrom(rng *rand.Rand) nsf.UNID {
	var u nsf.UNID
	for i := range u {
		u[i] = byte(rng.Intn(256))
	}
	return u
}

// docSource generates the memos one seed yields: the corpus first, then
// the documents clients create while the load runs.
type docSource struct {
	gen *workload.Generator
	rng *rand.Rand
}

func newDocSource(seed int64) *docSource {
	return &docSource{gen: workload.New(seed), rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

// next returns a fresh ~1 KB memo with a seed-determined UNID.
func (s *docSource) next() *nsf.Note {
	n := s.gen.Document(bodyBytes)
	n.OID.UNID = unidFrom(s.rng)
	return n
}

// corpus returns count fresh memos.
func (s *docSource) corpus(count int) []*nsf.Note {
	out := make([]*nsf.Note, count)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// contentSum fingerprints the items the benchmark writes, so a read can be
// checked against the version the benchmark last had acknowledged.
func contentSum(n *nsf.Note) uint64 {
	h := fnv.New64a()
	for _, item := range []string{"Subject", "From", "Category", "Body"} {
		h.Write([]byte(n.Text(item)))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "%g", n.Number("Priority"))
	return h.Sum64()
}

// collate is the view's text collation: case-insensitive byte order.
func collate(s string) string { return strings.ToLower(s) }

// checker records the first correctness mismatch of a run.
type checker struct {
	mu    sync.Mutex
	first string
	count int
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

func (c *checker) ok() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count == 0, c.first
}

func (c *checker) failed() bool {
	ok, _ := c.ok()
	return !ok
}

// zipfRank draws a rank in [0, n) favouring small ranks (recent documents).
type zipfRank struct{ z *rand.Zipf }

func newZipfRank(rng *rand.Rand, n int) zipfRank {
	return zipfRank{z: rand.NewZipf(rng, 1.1, 4, uint64(max(n-1, 1)))}
}

func (z zipfRank) draw(n int) int {
	if n <= 0 {
		return 0
	}
	return int(math.Min(float64(z.z.Uint64()), float64(n-1)))
}
