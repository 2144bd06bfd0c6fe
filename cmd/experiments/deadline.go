package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	domino "repro"
	"repro/internal/faultnet"
)

// --- W10: end-to-end deadlines, hedged reads, and wasted work ---
//
// The deadline layer's three claims, measured end to end:
//
// Phase A: with one faultnet-stalled mate in a 3-mate cluster, hedged +
// budgeted reads cut client-observed tail latency by >= 5x against the
// deadline-less baseline (flat OpTimeout, serial failover): the hedge fires
// after a small delay and a healthy mate answers while the stalled mate is
// still sitting on the response.
//
// Phase B: under sustained overload, a caller that abandons at D either
// carries D as a wire budget (the server sheds doomed requests before
// execution and wasted work stays ~0) or it does not (the server executes
// nearly everything for callers long gone).
//
// Phase C: deadline expiry mid-write is ambiguous, so the client runs the
// safe retry protocol (read back by UNID, re-create only if absent); the
// audit below shows zero acknowledged writes lost and zero duplicated
// across stall-induced expiries and failovers.

// w10Result is one measured configuration, serialized to
// BENCH_deadline.json as the regression baseline.
type w10Result struct {
	Phase          string  `json:"phase"`
	Mode           string  `json:"mode,omitempty"`
	Trials         int     `json:"trials,omitempty"`
	P50Ms          float64 `json:"p50_ms,omitempty"`
	P99Ms          float64 `json:"p99_ms,omitempty"`
	SpeedupX       float64 `json:"speedup_x,omitempty"`
	Hedges         uint64  `json:"hedges,omitempty"`
	HedgeWins      uint64  `json:"hedge_wins,omitempty"`
	Clients        int     `json:"clients,omitempty"`
	AbandonMs      float64 `json:"abandon_ms,omitempty"`
	Dispatched     uint64  `json:"dispatched,omitempty"`
	UsefulAcks     int64   `json:"useful_acks"`
	Wasted         int64   `json:"wasted"`
	WasteRatio     float64 `json:"waste_ratio"`
	BusySheds      uint64  `json:"busy_sheds,omitempty"`
	DeadlineSheds  uint64  `json:"deadline_sheds,omitempty"`
	DeadlineAborts uint64  `json:"deadline_aborts,omitempty"`
	Docs           int     `json:"docs,omitempty"`
	Acked          int     `json:"acked,omitempty"`
	Recovered      int     `json:"recovered,omitempty"`
	LostAcked      int     `json:"lost_acked"`
	Duplicated     int     `json:"duplicated"`
}

const w10Path = "apps/w10.nsf"

// w10Rig boots a 3-mate read cluster whose first mate's listener sits
// behind a faultnet: enabling it stalls every conversation with that mate
// (frames accepted, responses never sent) while the other two stay
// healthy. It returns the UNIDs of the docs every mate serves.
func w10Rig(docs int) (*rig, []domino.UNID) {
	r := newRig(rigSpec{path: w10Path, plans: map[string]faultnet.Plan{"m0": {Seed: 10, StallProb: 1}}},
		"m0", "m1", "m2")

	// Seed the first mate, then replicate in-process so every mate serves
	// the same UNIDs.
	var unids []domino.UNID
	sess := r.db["m0"].Session("ada")
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("w10 doc %d", i))
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	for _, mate := range []string{"m1", "m2"} {
		peer := "seed-" + mate
		if _, err := domino.Replicate(r.db["m0"], &domino.LocalPeer{DB: r.db[mate]}, domino.ReplicationOptions{PeerName: peer}); err != nil {
			log.Fatal(err)
		}
	}
	return r, unids
}

// w10TailOpts is the per-mode client configuration for Phase A. The
// baseline is the deadline-less world: a flat per-op timeout and serial
// failover, so a stalled mate costs a full OpTimeout before the client
// moves on. The hedged mode carries a budget and races a second mate after
// a fixed 12ms hedge delay.
func w10TailOpts(mode string) domino.FailoverOptions {
	opts := domino.FailoverOptions{
		Client: domino.ClientOptions{
			OpTimeout: 400 * time.Millisecond, MaxRetries: 1,
			BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
		},
	}
	if mode == "hedged" {
		opts.Client.OpBudget = 300 * time.Millisecond
		opts.HedgeReads = true
		opts.HedgeDelay = 12 * time.Millisecond
		opts.HedgeRateCap = 1.0
	}
	return opts
}

// w10Tail measures Phase A in one mode: each trial binds a fresh session
// whose current mate is the stalled one, turns the stall on, and times a
// single Get — the moment a user's read lands on a mate that just went
// dark.
func w10Tail(r *rig, unids []domino.UNID, mode string, trials int) w10Result {
	lats := make([]time.Duration, 0, trials)
	var hedges, wins uint64
	for i := 0; i < trials; i++ {
		fc, err := domino.DialFailover(r.addrs(), "ada", "pw", w10TailOpts(mode))
		if err != nil {
			log.Fatal(err)
		}
		db, err := fc.OpenDB(w10Path)
		if err != nil {
			log.Fatal(err)
		}
		r.nets["m0"].Enable()
		start := time.Now()
		if _, err := db.Get(unids[i%len(unids)]); err != nil {
			log.Fatalf("W10 %s trial %d: %v", mode, i, err)
		}
		lats = append(lats, time.Since(start))
		r.nets["m0"].Disable()
		st := fc.Stats()
		hedges += st.Hedges
		wins += st.HedgeWins
		fc.Close()
	}
	return w10Result{
		Phase: "tail", Mode: mode, Trials: trials,
		P50Ms:     float64(pct(lats, 0.50).Nanoseconds()) / 1e6,
		P99Ms:     float64(pct(lats, 0.99).Nanoseconds()) / 1e6,
		Hedges:    hedges,
		HedgeWins: wins,
	}
}

// w10Waste measures Phase B in one mode: `clients` connections hammer an
// overloaded single-slot server whose queue wait dwarfs the caller's
// patience D. "flat-timeout" callers wait out the queue but stop caring at
// D — every completion past D is work the server did for nobody.
// "budgeted" callers carry D on the wire, so admission sheds requests that
// cannot survive the queue before they execute.
func w10Waste(mode string, clients int, abandon, dur time.Duration) w10Result {
	// One execution slot + SyncWAL pins the service rate to the fsync path;
	// the admit queue (not busy-shedding) is where requests go to die.
	r := newRig(rigSpec{path: "apps/w10b.nsf", tweak: func(_ string, o *domino.ServerOptions) {
		o.SyncWAL, o.MaxInFlight, o.AdmitWait = true, 1, 200*time.Millisecond
	}}, "w10b")
	defer r.close()
	srv := r.srv["w10b"]

	// No client-side retries: every outcome is counted once.
	copts := domino.ClientOptions{MaxRetries: -1, DialTimeout: 2 * time.Second}
	if mode == "budgeted" {
		copts.OpBudget = abandon
	} else {
		// Deadline-less: the client waits out the whole queue, but the
		// caller behind it abandoned the result at `abandon`.
		copts.OpTimeout = 2 * time.Second
	}
	rdbs := make([]*domino.RemoteDB, clients)
	for i := range rdbs {
		c, err := domino.DialOptions(r.addr["w10b"], "ada", "pw", copts)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		rdb, err := c.OpenDB("apps/w10b.nsf")
		if err != nil {
			log.Fatal(err)
		}
		rdbs[i] = rdb
	}
	h0 := srv.Health()

	var mu sync.Mutex
	var useful, late int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i, rdb := range rdbs {
		wg.Add(1)
		go func(i int, rdb *domino.RemoteDB) {
			defer wg.Done()
			var myUseful, myLate int64
			body := string(make([]byte, 4<<10))
			for j := 0; time.Now().Before(deadline); j++ {
				n := domino.NewDocument()
				n.SetText("Subject", fmt.Sprintf("w10b %d/%d", i, j))
				n.SetText("Body", body)
				start := time.Now()
				err := rdb.Create(n)
				switch {
				case err == nil && time.Since(start) <= abandon:
					myUseful++
				case err == nil:
					myLate++ // completed for a caller that had left
				case isBusy(err) || isDeadline(err):
					// shed (busy or deadline-refused): never executed
				default:
					log.Fatal(err)
				}
			}
			mu.Lock()
			useful += myUseful
			late += myLate
			mu.Unlock()
		}(i, rdb)
	}
	wg.Wait()

	h1 := srv.Health()
	dispatched := h1.Dispatched - h0.Dispatched
	wasted := int64(dispatched) - useful
	if wasted < 0 {
		wasted = 0
	}
	res := w10Result{
		Phase: "waste", Mode: mode, Clients: clients,
		AbandonMs:      float64(abandon.Nanoseconds()) / 1e6,
		Dispatched:     dispatched,
		UsefulAcks:     useful,
		Wasted:         wasted,
		BusySheds:      h1.Sheds - h0.Sheds,
		DeadlineSheds:  h1.DeadlineSheds - h0.DeadlineSheds,
		DeadlineAborts: h1.DeadlineAborts - h0.DeadlineAborts,
	}
	if dispatched > 0 {
		res.WasteRatio = float64(wasted) / float64(dispatched)
	}
	_ = late
	return res
}

func isDeadline(err error) bool { return errors.Is(err, domino.ErrDeadline) }

// w10WriteSafety runs Phase C: a budgeted failover client creates
// documents against a 2-mate cluster whose primary stalls a fifth of its
// connections mid-conversation, so some creates die by deadline expiry
// after the server may have applied them. The client answers every
// ambiguous outcome with the safe retry protocol: read the UNID back
// (waiting out cluster-push lag), re-create only if genuinely absent. The
// audit then reconciles the replicas in-process and checks every
// acknowledged subject exists exactly once.
func w10WriteSafety(docs int) w10Result {
	// alpha listens behind the faultnet (injection off until the run
	// starts). Its cluster push to beta means a create the stalled alpha
	// applied but never acknowledged still reaches beta, which is exactly
	// what makes blind re-creates dangerous and the read-back protocol
	// necessary. The rig closes alpha first, so its cluster link stops
	// before beta's listener goes away.
	r := newRig(rigSpec{path: "apps/w10c.nsf", plans: map[string]faultnet.Plan{"alpha": {Seed: 20, StallProb: 0.2}}},
		"alpha", "beta")
	defer r.close()
	r.srv["alpha"].EnableClustering(map[string]string{"beta": r.addr["beta"]})
	fn, dbA, dbB := r.nets["alpha"], r.db["alpha"], r.db["beta"]

	fc, err := domino.DialFailover(r.addrs(), "ada", "pw", domino.FailoverOptions{
		Client: domino.ClientOptions{
			OpBudget: 200 * time.Millisecond, OpTimeout: time.Second,
			MaxRetries: 1, BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
		},
		// Short cooldown so the client keeps drifting back to the stalling
		// primary during the run: several expiry -> failover -> recover
		// cycles get exercised, not just the first.
		Cooldown: 200 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("apps/w10c.nsf")
	if err != nil {
		log.Fatal(err)
	}

	fn.Enable()
	type ackedDoc struct {
		unid    domino.UNID
		subject string
	}
	var acked []ackedDoc
	recovered := 0
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		subject := fmt.Sprintf("w10c doc %04d", i)
		n.SetText("Subject", subject)
		if err := db.Create(n); err != nil {
			// Ambiguous outcome (deadline expiry or transport death after
			// send): never blind-resend. Read back first — giving the
			// cluster push a moment to surface a create the stalled mate
			// applied — and re-create only when provably absent.
			ok := false
			for attempt := 0; attempt < 10 && !ok; attempt++ {
				if _, gerr := db.Get(n.OID.UNID); gerr == nil {
					ok = true
					break
				}
				if attempt < 3 {
					time.Sleep(25 * time.Millisecond) // push lag window
					continue
				}
				if cerr := db.Create(n); cerr == nil {
					ok = true
				}
			}
			if !ok {
				continue // never acknowledged anywhere — excluded from audit
			}
			recovered++
		}
		acked = append(acked, ackedDoc{n.OID.UNID, subject})
	}
	fn.Disable()

	// Reconcile the replicas in-process (pull + push), then audit against
	// the merged state: an acked subject missing everywhere is a lost
	// write; one appearing twice (including as a replication conflict) is
	// a duplicated retry.
	if _, err := domino.Replicate(dbA, &domino.LocalPeer{DB: dbB}, domino.ReplicationOptions{PeerName: "audit"}); err != nil {
		log.Fatal(err)
	}
	counts := make(map[string]int)
	dbB.ScanAll(func(n *domino.Note) bool {
		if s := n.Text("Subject"); s != "" {
			counts[s]++
		}
		return true
	})
	lost, dup := 0, 0
	for _, a := range acked {
		switch c := counts[a.subject]; {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	return w10Result{
		Phase: "write-safety", Docs: docs,
		Acked: len(acked), Recovered: recovered,
		LostAcked: lost, Duplicated: dup,
	}
}

const (
	w10MinSpeedup = 5.0  // acceptance: hedged p99 >= 5x better
	w10MaxWaste   = 0.10 // acceptance: budgeted waste ratio ~0 (single-core client jitter slack)
)

func runW10(quick bool) {
	var results []w10Result

	trials := pick(quick, 12, 6)
	docs := pick(quick, 50, 20)
	cl, unids := w10Rig(docs)
	fmt.Println("  Phase A: read tail with one stalled mate — flat-timeout failover vs budget+hedge")
	ta := newTable("mode", "trials", "p50 ms", "p99 ms", "hedges", "wins", "speedup")
	baseline := w10Tail(cl, unids, "baseline", trials)
	hedged := w10Tail(cl, unids, "hedged", trials)
	cl.close()
	if hedged.P99Ms > 0 {
		hedged.SpeedupX = baseline.P99Ms / hedged.P99Ms
	}
	results = append(results, baseline, hedged)
	for _, r := range []w10Result{baseline, hedged} {
		sp := "—"
		if r.SpeedupX > 0 {
			sp = fmt.Sprintf("%.1fx", r.SpeedupX)
		}
		ta.add(r.Mode, r.Trials, fmt.Sprintf("%.1f", r.P50Ms), fmt.Sprintf("%.1f", r.P99Ms),
			fmt.Sprint(r.Hedges), fmt.Sprint(r.HedgeWins), sp)
	}
	ta.print()
	if hedged.SpeedupX < w10MinSpeedup {
		fail("hedged p99 only %.1fx better than baseline (target >= %.0fx)", hedged.SpeedupX, w10MinSpeedup)
	} else {
		fmt.Printf("  hedged reads cut p99 %.1fx (target >= %.0fx)\n", hedged.SpeedupX, w10MinSpeedup)
	}

	clients := 48 // same both modes: more goroutines than this adds 1-CPU client jitter, not queue
	dur := time.Duration(pick(quick, 1500, 500)) * time.Millisecond
	abandon := 8 * time.Millisecond
	fmt.Println("  Phase B: overloaded server, callers abandon at 8ms — wasted completions")
	tb := newTable("mode", "clients", "dispatched", "useful acks", "wasted", "waste ratio", "busy sheds", "deadline sheds")
	for _, mode := range []string{"flat-timeout", "budgeted"} {
		r := w10Waste(mode, clients, abandon, dur)
		results = append(results, r)
		tb.add(r.Mode, r.Clients, fmt.Sprint(r.Dispatched), fmt.Sprint(r.UsefulAcks),
			fmt.Sprint(r.Wasted), fmt.Sprintf("%.2f", r.WasteRatio),
			fmt.Sprint(r.BusySheds), fmt.Sprint(r.DeadlineSheds))
		if mode == "budgeted" && r.WasteRatio > w10MaxWaste {
			fail("budgeted waste ratio %.2f (target <= %.2f)", r.WasteRatio, w10MaxWaste)
		}
	}
	tb.print()
	fmt.Println("  (shape check: without budgets the server completes the queue for callers long")
	fmt.Println("   gone; with budgets, doomed requests are refused before executing)")

	wdocs := pick(quick, 80, 30)
	fmt.Println("  Phase C: write-safety audit across deadline-expiry retries (stalling primary)")
	ws := w10WriteSafety(wdocs)
	results = append(results, ws)
	tc := newTable("docs", "acked", "recovered", "lost acked", "duplicated")
	tc.add(ws.Docs, ws.Acked, ws.Recovered, ws.LostAcked, ws.Duplicated)
	tc.print()
	if ws.LostAcked != 0 || ws.Duplicated != 0 {
		fail("audit failed: %d lost, %d duplicated acked writes", ws.LostAcked, ws.Duplicated)
	} else {
		fmt.Println("  (invariant: zero acked writes lost or duplicated — ambiguity answered by read-back, not resend)")
	}

	benchW10.save(results)
}
