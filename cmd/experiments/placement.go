package main

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
)

// --- W6: partitioned namespace — live moves and dead-mate re-homing ---
//
// The placement layer's two claims, measured end to end:
//
// Phase A: a database moves between mates while a client streams writes
// through it. The move's drain fence plus the WrongMate redirect protocol
// mean the client never loses an acknowledged write and lands on the new
// home without reconfiguration.
//
// Phase B: a cluster of three mates homes a namespace of databases by
// rendezvous placement; one mate (homing about a third of them) is killed.
// Each of its databases is re-homed onto a survivor from its last hot
// backup image plus a catch-up pass over the dead disk, and the placement
// generation flips so clients re-route. The audit walks every write any
// client saw acknowledged and requires all of them on the new homes.

// w6Result is one measured phase, serialized to BENCH_placement.json as
// the regression baseline.
type w6Result struct {
	Phase          string  `json:"phase"`
	Databases      int     `json:"databases,omitempty"`
	Mates          int     `json:"mates,omitempty"`
	DeadHomed      int     `json:"dead_homed,omitempty"`
	Acked          int     `json:"acked,omitempty"`
	LostAcked      int     `json:"lost_acked"`
	MoveMs         float64 `json:"move_ms,omitempty"`
	MovedNotes     int     `json:"moved_notes,omitempty"`
	Rounds         int     `json:"catchup_rounds,omitempty"`
	Generation     uint64  `json:"generation,omitempty"`
	Redirects      uint64  `json:"redirects,omitempty"`
	RehomeMedianMs float64 `json:"rehome_median_ms,omitempty"`
	RehomeMaxMs    float64 `json:"rehome_max_ms,omitempty"`
}

// ackedCreate issues one create through a failover handle with the
// read-back recovery protocol; it returns false only if the write was
// never acknowledged anywhere.
func ackedCreate(db *domino.FailoverDB, n *domino.Note) bool {
	for attempt := 0; attempt < 2000; attempt++ {
		if err := db.Create(n); err == nil {
			return true
		}
		if _, gerr := db.Get(n.OID.UNID); gerr == nil {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// w6LiveMove runs Phase A: one database, a streaming writer, a live move
// under it.
func w6LiveMove(docs int) w6Result {
	c := newRig(rigSpec{}, "alpha", "beta")
	defer c.close()
	const path = "apps/move.nsf"
	c.open("alpha", path, domino.NewReplicaID())
	if _, err := c.d.SetPlacement(path, []string{"alpha"}, 1); err != nil {
		log.Fatal(err)
	}

	fc, err := domino.DialFailover(c.addrs(), "ada", "pw", domino.FailoverOptions{
		Client: domino.ClientOptions{MaxRetries: -1, BackoffBase: time.Millisecond,
			BackoffMax: 5 * time.Millisecond, DialTimeout: 2 * time.Second},
		Cooldown: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB(path)
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	var acked []domino.UNID
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			n := domino.NewDocument()
			n.SetText("Subject", fmt.Sprintf("w6 doc %d", i))
			if ackedCreate(db, n) {
				mu.Lock()
				acked = append(acked, n.OID.UNID)
				mu.Unlock()
			}
		}
	}()
	waitAcked := func(min int) {
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= min {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitAcked(docs / 2)

	res, err := domino.MoveDatabase(c.d, c.srv["alpha"], c.srv["beta"], path, domino.MoveOptions{
		BackupRoot: filepath.Join(c.dir, "imgroot"), QuiesceTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The writer must keep acking after the flip — through the stale-cache
	// redirect — before the audit runs.
	mu.Lock()
	atMove := len(acked)
	mu.Unlock()
	waitAcked(atMove + docs/2)
	stop.Store(true)
	<-done

	newHome, _ := c.srv["beta"].DB(path)
	return w6Result{
		Phase:      "live-move",
		Acked:      len(acked),
		LostAcked:  lostAcked(acked, newHome),
		MoveMs:     float64(res.Elapsed.Nanoseconds()) / 1e6,
		MovedNotes: res.Moved,
		Rounds:     res.Rounds,
		Generation: res.Generation,
		Redirects:  fc.Stats().WrongMateRedirects,
	}
}

// w6Rehome runs Phase B: rendezvous-place a namespace over three mates,
// kill one, recover its share onto the survivors.
func w6Rehome(dbs, docs, delta, post int) w6Result {
	c := newRig(rigSpec{}, "alpha", "beta", "gamma")
	defer c.close()

	// Rendezvous-place the namespace, one home mate per database, and open
	// each database on its home.
	paths := make([]string, dbs)
	home := map[string]string{}
	for i := range paths {
		paths[i] = fmt.Sprintf("apps/db%02d.nsf", i)
		p, err := c.d.AssignPlacement(paths[i], c.names, 1)
		if err != nil {
			log.Fatal(err)
		}
		home[paths[i]] = p.Home[0]
		c.open(p.Home[0], paths[i], domino.NewReplicaID())
	}

	fc, err := domino.DialFailover(c.addrs(), "ada", "pw", domino.FailoverOptions{
		Client: domino.ClientOptions{MaxRetries: -1, BackoffBase: time.Millisecond,
			BackoffMax: 5 * time.Millisecond, DialTimeout: 2 * time.Second},
		Cooldown: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	handles := map[string]*domino.FailoverDB{}
	acked := map[string][]domino.UNID{}
	write := func(path string, k int) {
		for i := 0; i < k; i++ {
			n := domino.NewDocument()
			n.SetText("Subject", fmt.Sprintf("%s doc %d", path, len(acked[path])))
			if ackedCreate(handles[path], n) {
				acked[path] = append(acked[path], n.OID.UNID)
			}
		}
	}
	for _, path := range paths {
		h, err := fc.OpenDB(path)
		if err != nil {
			log.Fatal(err)
		}
		handles[path] = h
		write(path, docs)
	}

	// Scheduled hot backups on every mate, then more writes: the delta
	// exists only on the home mates' disks, beyond the images.
	for _, name := range c.names {
		if _, err := c.srv[name].BackupAll(filepath.Join(c.dir, "backup-"+name), true); err != nil {
			log.Fatal(err)
		}
	}
	for _, path := range paths {
		write(path, delta)
	}

	// Kill the mate homing the largest share of the namespace.
	perMate := map[string]int{}
	for _, h := range home {
		perMate[h]++
	}
	dead := c.names[0]
	for _, name := range c.names[1:] {
		if perMate[name] > perMate[dead] {
			dead = name
		}
	}
	c.kill(dead)

	// Re-home every database the dead mate homed onto the survivors
	// (round-robin), from its backup image plus the dead disk.
	survivors := make([]string, 0, len(c.names)-1)
	for _, name := range c.names {
		if name != dead {
			survivors = append(survivors, name)
		}
	}
	var rehomeTimes []time.Duration
	deadHomed := 0
	next := 0
	for _, path := range paths {
		if home[path] != dead {
			continue
		}
		deadHomed++
		dst := survivors[next%len(survivors)]
		next++
		res, err := domino.RecoverDatabase(c.d, dead, c.srv[dst], path, domino.RecoverOptions{
			BackupRoot:  filepath.Join(c.dir, "backup-"+dead),
			DeadDataDir: filepath.Join(c.dir, dead),
		})
		if err != nil {
			log.Fatal(err)
		}
		home[path] = dst
		rehomeTimes = append(rehomeTimes, res.Elapsed)
	}

	// The pre-kill handles are stale: their cached placement names the dead
	// mate. Writing through them exercises the redirect/re-resolve path.
	for _, path := range paths {
		write(path, post)
	}

	// Audit: every write any client saw acknowledged exists on the
	// database's current home.
	total, lost := 0, 0
	for _, path := range paths {
		db, ok := c.srv[home[path]].DB(path)
		if !ok {
			log.Fatalf("w6: %s has no copy of %s", home[path], path)
		}
		total += len(acked[path])
		lost += lostAcked(acked[path], db)
	}
	res := w6Result{
		Phase:     "rehome",
		Databases: dbs,
		Mates:     len(c.names),
		DeadHomed: deadHomed,
		Acked:     total,
		LostAcked: lost,
		Redirects: fc.Stats().WrongMateRedirects,
	}
	if len(rehomeTimes) > 0 {
		res.RehomeMedianMs = float64(pct(rehomeTimes, 0.50).Nanoseconds()) / 1e6
		res.RehomeMaxMs = float64(pct(rehomeTimes, 1).Nanoseconds()) / 1e6
	}
	return res
}

func runW6(quick bool) {
	var results []w6Result

	mv := w6LiveMove(pick(quick, 40, 16))
	results = append(results, mv)
	ta := newTable("acked", "lost acked", "move ms", "notes moved", "rounds", "gen", "redirects")
	ta.add(mv.Acked, mv.LostAcked, fmt.Sprintf("%.1f", mv.MoveMs), mv.MovedNotes,
		mv.Rounds, fmt.Sprint(mv.Generation), fmt.Sprint(mv.Redirects))
	fmt.Println("  Phase A: live move under a streaming writer")
	ta.print()
	if mv.LostAcked != 0 {
		fail("%d acknowledged writes lost across the move", mv.LostAcked)
	} else {
		fmt.Println("  (invariant: zero acknowledged writes lost across the move)")
	}

	re := w6Rehome(pick(quick, 12, 6), pick(quick, 20, 8), pick(quick, 8, 4), pick(quick, 6, 3))
	results = append(results, re)
	tb := newTable("dbs", "mates", "dead homed", "acked", "lost acked",
		"rehome median ms", "rehome max ms", "redirects")
	tb.add(re.Databases, re.Mates, re.DeadHomed, re.Acked, re.LostAcked,
		fmt.Sprintf("%.1f", re.RehomeMedianMs), fmt.Sprintf("%.1f", re.RehomeMaxMs),
		fmt.Sprint(re.Redirects))
	fmt.Println("  Phase B: kill the mate homing the largest namespace share, re-home onto survivors")
	tb.print()
	if re.LostAcked != 0 {
		fail("%d acknowledged writes lost across the re-home", re.LostAcked)
	} else {
		fmt.Println("  (invariant: zero acknowledged writes lost across the mate kill + re-home)")
	}

	benchW6.save(results)
}
