package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	domino "repro"
	"repro/internal/faultnet"
)

// --- the shared experiment harness ---
//
// Experiments boot servers through rig, open scratch databases through
// tempDB, take percentiles with pct, audit acknowledged writes with
// lostAcked, record baselines through their bench section, and report a
// broken invariant through fail. A -quick run only prints: it never writes
// a BENCH file. A run in which an invariant failed writes no BENCH file
// from then on and exits 1.

var (
	quickRun = flag.Bool("quick", false, "run with reduced sizes; prints only, never writes a BENCH file")
	failures int // invariant failures and guard regressions so far in this run
)

// fail reports a violated invariant: the run writes no BENCH file from
// here on, and main exits 1 once the requested experiments are done.
func fail(format string, args ...any) {
	failures++
	fmt.Printf("  !! "+format+"\n", args...)
}

// pct returns the p-quantile of ds by the int(p*(n-1)) rule every committed
// baseline was measured with. It sorts a copy; ds is left as it was.
func pct(ds []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// lostAcked counts the acknowledged writes missing from db.
func lostAcked(acked []domino.UNID, db *domino.Database) int {
	lost := 0
	for _, u := range acked {
		if _, err := db.RawGet(u); err != nil {
			lost++
		}
	}
	return lost
}

// scratchDB is a database alone in a temporary directory; Close removes
// the directory.
type scratchDB struct {
	*domino.Database
	path string
}

// tempDB opens a throwaway database; the caller must Close it.
func tempDB(opts domino.Options) *scratchDB {
	dir, err := os.MkdirTemp("", "domino-exp")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "exp.nsf")
	db, err := domino.Open(path, opts)
	if err != nil {
		log.Fatal(err)
	}
	return &scratchDB{Database: db, path: path}
}

func (s *scratchDB) Close() error {
	err := s.Database.Close()
	os.RemoveAll(filepath.Dir(s.path))
	return err
}

// rig is one experiment's cluster: named servers in one temporary
// directory, sharing a user directory ("ada"/"pw" plus every server as a
// peer user), each listening on loopback — behind a faultnet with
// injection off when it has a plan — and peered with all the others.
type rig struct {
	dir     string
	d       *domino.Directory
	names   []string
	spec    rigSpec
	replica domino.ReplicaID
	srv     map[string]*domino.Server
	addr    map[string]string
	nets    map[string]*faultnet.Net
	db      map[string]*domino.Database // the shared replica on each live node
}

// rigSpec is what differs between rigs.
type rigSpec struct {
	path  string                                     // shared replica opened on every node; "" for none
	plans map[string]faultnet.Plan                   // nodes that listen behind a faultnet
	tweak func(name string, o *domino.ServerOptions) // per-node ServerOptions changes
}

func newRig(spec rigSpec, names ...string) *rig {
	dir, err := os.MkdirTemp("", "domino-rig")
	if err != nil {
		log.Fatal(err)
	}
	r := &rig{
		dir: dir, d: domino.NewDirectory(), names: names, spec: spec,
		replica: domino.NewReplicaID(),
		srv:     map[string]*domino.Server{}, addr: map[string]string{},
		nets: map[string]*faultnet.Net{}, db: map[string]*domino.Database{},
	}
	r.d.AddUser(domino.User{Name: "ada", Secret: "pw"})
	for _, name := range names {
		r.d.AddUser(domino.User{Name: name, Secret: name + "-secret"})
	}
	for _, name := range names {
		r.boot(name)
	}
	r.setPeers()
	return r
}

// boot creates (or, after a kill, re-creates from its data directory) one
// server, opens the shared replica on it and starts it on a fresh port.
func (r *rig) boot(name string) {
	o := domino.ServerOptions{
		Name: name, DataDir: filepath.Join(r.dir, name),
		Directory: r.d, PeerSecret: name + "-secret",
	}
	if r.spec.tweak != nil {
		r.spec.tweak(name, &o)
	}
	s, err := domino.NewServer(o)
	if err != nil {
		log.Fatal(err)
	}
	r.srv[name] = s
	if r.spec.path != "" {
		r.db[name] = r.open(name, r.spec.path, r.replica)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if plan, ok := r.spec.plans[name]; ok {
		fn := faultnet.New(plan)
		fn.Disable()
		r.nets[name] = fn
		ln = fn.Listener(ln)
	}
	r.addr[name] = s.Serve(ln)
}

// open opens path on one node with Editor grants for ada and every mate.
func (r *rig) open(name, path string, replica domino.ReplicaID) *domino.Database {
	db, err := r.srv[name].OpenDB(path, domino.Options{Title: path, ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	db.ACL().Set("ada", domino.Editor)
	for _, mate := range r.names {
		db.ACL().Set(mate, domino.Editor)
	}
	return db
}

// setPeers gives every live server the current address of every mate —
// at boot, and again after a restart lands a mate on a new port.
func (r *rig) setPeers() {
	for name, s := range r.srv {
		peers := map[string]string{}
		for _, other := range r.names {
			if other != name {
				peers[other] = r.addr[other]
			}
		}
		s.SetPeers(peers)
	}
}

// addrs lists the node addresses in boot order.
func (r *rig) addrs() []string {
	out := make([]string, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.addr[name])
	}
	return out
}

// kill closes one server and keeps its data directory for a restart.
func (r *rig) kill(name string) {
	if err := r.srv[name].Close(); err != nil {
		log.Fatal(err)
	}
	delete(r.srv, name)
	delete(r.db, name)
}

func (r *rig) restart(name string) {
	r.boot(name)
	r.setPeers()
}

// close shuts the live servers down in boot order and removes the directory.
func (r *rig) close() {
	for _, name := range r.names {
		if s, ok := r.srv[name]; ok {
			s.Close()
		}
	}
	os.RemoveAll(r.dir)
}

// bench is one experiment's rows in a committed BENCH file: section is its
// key in a sectioned file, or "" when the experiment owns the whole file.
type bench[T any] struct{ file, section string }

var (
	benchW1  = bench[wpResult]{"BENCH_writepath.json", "w1"}
	benchW7  = bench[w7Result]{"BENCH_writepath.json", "w7"}
	benchW4  = bench[w4Result]{"BENCH_readpath.json", "w4"}
	benchW9  = bench[w9Result]{"BENCH_readpath.json", "w9"}
	benchW3  = bench[w3Result]{"BENCH_backup.json", ""}
	benchW5  = bench[w5Result]{"BENCH_availability.json", ""}
	benchW6  = bench[w6Result]{"BENCH_placement.json", ""}
	benchW8  = bench[w8Result]{"BENCH_mesh.json", ""}
	benchW10 = bench[w10Result]{"BENCH_deadline.json", ""}
)

// load reads the committed rows; a missing file or section reads as none.
func (b bench[T]) load() []T {
	raw, err := os.ReadFile(b.file)
	if err != nil {
		return nil
	}
	if b.section != "" {
		raw = b.sections(raw)[b.section]
		if raw == nil {
			return nil
		}
	}
	var rows []T
	if err := json.Unmarshal(raw, &rows); err != nil {
		log.Fatalf("%s: %v", b.file, err)
	}
	return rows
}

// save records rows as this experiment's baseline, leaving every other
// section of the file byte-for-byte as it was. A -quick run, or one in
// which an invariant failed, writes nothing.
func (b bench[T]) save(rows []T) {
	switch {
	case *quickRun:
		fmt.Println("  quick run: " + b.file + " left as committed")
		return
	case failures > 0:
		fmt.Println("  invariant failed: " + b.file + " not written")
		return
	}
	var v any = rows
	if b.section != "" {
		file := map[string]any{}
		if raw, err := os.ReadFile(b.file); err == nil {
			for k, s := range b.sections(raw) {
				file[k] = s
			}
		}
		file[b.section] = rows
		v = file
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(b.file, append(out, '\n'), 0o666); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  baseline written to " + b.file)
}

func (b bench[T]) sections(raw []byte) map[string]json.RawMessage {
	var s map[string]json.RawMessage
	if err := json.Unmarshal(raw, &s); err != nil {
		log.Fatalf("%s: %v", b.file, err)
	}
	return s
}
