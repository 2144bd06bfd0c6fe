package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	domino "repro"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// --- W9: paginated bulk read path ---
//
// The bulk-read claim, measured end to end over the wire:
//
// Phase A — a view open over a 5 ms-RTT link (faultnet fixed latency on
// both directions) pays one round trip per page instead of one per
// document. Against the per-note baseline (Get each document the view
// lists, the only portable read shape the old protocol offered for
// projections), the paginated open must be at least 5x faster.
//
// Phase B — a 200k-row view whose one-shot rendering would exceed the
// 64 MiB frame limit streams fully: a client-side frame meter parses the
// raw read stream and asserts every response frame stays under MaxFrame
// (and far under it — pages respect the server's byte budget), while the
// summed row payload documents what the one-shot protocol would have had
// to carry in a single frame.

// w9Result is one measured configuration, serialized into the w9 section
// of BENCH_readpath.json as the regression baseline.
type w9Result struct {
	Phase      string  `json:"phase"`
	Docs       int     `json:"docs"`
	RTTMs      float64 `json:"rtt_ms,omitempty"`
	PageRows   int     `json:"page_rows,omitempty"`
	Pages      int     `json:"pages,omitempty"`
	RoundTrips int64   `json:"round_trips,omitempty"`
	ViewOpenMs float64 `json:"view_open_ms,omitempty"`
	PerNoteMs  float64 `json:"per_note_ms,omitempty"`
	SpeedupX   float64 `json:"speedup_x,omitempty"`
	Rows       int     `json:"rows,omitempty"`
	MaxFrameB  int     `json:"max_frame_bytes,omitempty"`
	TotalB     int64   `json:"total_frame_bytes,omitempty"`
}

const w9Path = "apps/w9.nsf"

// w9Server boots one server with the given bulk-read page budget, seeds
// `docs` documents server-side (each with a Subject of at least `subject`
// bytes), and defines a sorted Subject view. The listener sits behind a
// faultnet with the given plan (injection disabled; enable before
// measuring).
func w9Server(docs, subject, pageRows int, plan faultnet.Plan) *rig {
	r := newRig(rigSpec{
		path:  w9Path,
		plans: map[string]faultnet.Plan{"w9": plan},
		tweak: func(_ string, o *domino.ServerOptions) { o.MaxPageRows = pageRows },
	}, "w9")
	db := r.db["w9"]

	// Seed before defining the view: one rebuild beats n incremental updates.
	pad := string(make([]byte, subject))
	sess := db.Session("ada")
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("doc %08d %s", i, pad))
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
	}
	def, err := domino.NewView("bysubject", "SELECT @All",
		domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		log.Fatal(err)
	}
	return r
}

// w9ViewOpen measures Phase A at one configuration: client-observed time
// to render the whole view over a link with the given one-way latency,
// paginated, against the per-note Get baseline over the same link.
func w9ViewOpen(docs, pageRows int, oneWay time.Duration) w9Result {
	r := w9Server(docs, 0, pageRows, faultnet.Plan{Latency: oneWay})
	defer r.close()
	addr, fn := r.addr["w9"], r.nets["w9"]

	// Dial and bind the handle with latency off: both modes share session
	// setup, and the comparison is read traffic, not handshakes.
	c, err := domino.DialOptions(addr, "ada", "pw", domino.ClientOptions{Dialer: fn.Dial})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB(w9Path)
	if err != nil {
		log.Fatal(err)
	}

	fn.Enable()
	before := fn.Stats().Latencies
	start := time.Now()
	rows, err := rdb.ViewRows("bysubject")
	if err != nil {
		log.Fatal(err)
	}
	viewOpen := time.Since(start)
	// Request and response bursts each pay the one-way latency once, so
	// round trips = latency events / 2.
	trips := (fn.Stats().Latencies - before) / 2
	if len(rows) != docs {
		log.Fatalf("W9: view rendered %d rows, want %d", len(rows), docs)
	}

	start = time.Now()
	for _, r := range rows {
		if _, err := rdb.Get(r.UNID); err != nil {
			log.Fatal(err)
		}
	}
	perNote := time.Since(start)
	fn.Disable()

	res := w9Result{
		Phase: "view-open", Docs: docs,
		RTTMs:      2 * float64(oneWay.Microseconds()) / 1e3,
		PageRows:   pageRows,
		Pages:      (docs + pageRows - 1) / pageRows,
		RoundTrips: trips,
		ViewOpenMs: float64(viewOpen.Microseconds()) / 1e3,
		PerNoteMs:  float64(perNote.Microseconds()) / 1e3,
	}
	if viewOpen > 0 {
		res.SpeedupX = float64(perNote) / float64(viewOpen)
	}
	return res
}

// frameMeter wraps a client connection and runs the frame protocol's
// header parser over the raw read stream — the real bytes on the wire, not
// what the decoder reports — recording every response frame's payload
// size.
type frameMeter struct {
	net.Conn
	stats *frameStats

	need int      // payload bytes left in the current frame
	hdr  [12]byte // partially accumulated [u32 len][u32 id][u32 budget] header
	hlen int
}

type frameStats struct {
	mu     sync.Mutex
	frames int64
	total  int64
	max    int
}

func (m *frameMeter) Read(b []byte) (int, error) {
	n, err := m.Conn.Read(b)
	if n > 0 {
		m.feed(b[:n])
	}
	return n, err
}

// feed advances the parser over one chunk of the read stream. One reader
// goroutine per connection does all its reads, so no lock is needed on the
// parser state itself.
func (m *frameMeter) feed(b []byte) {
	for len(b) > 0 {
		if m.need > 0 {
			k := m.need
			if k > len(b) {
				k = len(b)
			}
			m.need -= k
			b = b[k:]
			continue
		}
		k := copy(m.hdr[m.hlen:], b)
		m.hlen += k
		b = b[k:]
		if m.hlen == len(m.hdr) {
			n := int(binary.LittleEndian.Uint32(m.hdr[:4]))
			m.hlen = 0
			m.need = n
			m.stats.mu.Lock()
			m.stats.frames++
			m.stats.total += int64(n)
			if n > m.stats.max {
				m.stats.max = n
			}
			m.stats.mu.Unlock()
		}
	}
}

// w9FrameBound measures Phase B: a view big enough that its one-shot
// rendering would not fit in a single MaxFrame frame streams fully in
// paginated form, every frame verified against the limit by the meter.
func w9FrameBound(docs int) w9Result {
	// ~400-byte subjects: at 200k rows the summed rendering tops 64 MiB,
	// which the one-shot protocol could not frame at all.
	r := w9Server(docs, 400, 0, faultnet.Plan{})
	defer r.close()

	stats := &frameStats{}
	dialer := func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return &frameMeter{Conn: conn, stats: stats}, nil
	}
	c, err := domino.DialOptions(r.addr["w9"], "ada", "pw", domino.ClientOptions{Dialer: dialer})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB(w9Path)
	if err != nil {
		log.Fatal(err)
	}

	pages, rows := 0, 0
	for start := 0; ; {
		p, err := rdb.ViewPage("bysubject", start, 0)
		if err != nil {
			log.Fatal(err)
		}
		pages++
		rows += len(p.Rows)
		if !p.More || p.Next <= start {
			break
		}
		start = p.Next
	}
	if rows != docs {
		log.Fatalf("W9: paginated stream delivered %d rows, want %d", rows, docs)
	}

	stats.mu.Lock()
	defer stats.mu.Unlock()
	if stats.max >= wire.MaxFrame {
		log.Fatalf("W9: response frame of %d bytes at or over the %d limit", stats.max, wire.MaxFrame)
	}
	return w9Result{
		Phase: "frame-bound", Docs: docs,
		Pages: pages, Rows: rows,
		MaxFrameB: stats.max, TotalB: stats.total,
	}
}

// Guard-probe configuration: fixed sizes in quick and full runs, so the
// drift guard compares like against like.
const (
	w9ProbeDocs  = 200
	w9ProbePage  = 64
	w9ProbeDelay = 2500 * time.Microsecond // 5 ms RTT
)

func w9Probe() w9Result {
	r := w9ViewOpen(w9ProbeDocs, w9ProbePage, w9ProbeDelay)
	r.Phase = "view-open-probe"
	return r
}

// w9MinSpeedup is the acceptance ratio of the paginated view open over
// the per-note baseline.
const w9MinSpeedup = 5.0

func runW9(quick bool) {
	var results []w9Result

	docs := pick(quick, 2000, 400)
	pageRows := 256
	fmt.Println("  Phase A: view open over a 5ms-RTT link, paginated vs per-note Get")
	ta := newTable("docs", "pages", "round trips", "view open ms", "per-note ms", "speedup")
	a := w9ViewOpen(docs, pageRows, w9ProbeDelay)
	results = append(results, a)
	probe := w9Probe()
	results = append(results, probe)
	for _, r := range []w9Result{a, probe} {
		ta.add(r.Docs, r.Pages, r.RoundTrips, fmt.Sprintf("%.1f", r.ViewOpenMs),
			fmt.Sprintf("%.1f", r.PerNoteMs), fmt.Sprintf("%.1fx", r.SpeedupX))
	}
	ta.print()
	fmt.Printf("  speedup target: >= %.0fx\n", w9MinSpeedup)
	if probe.SpeedupX < w9MinSpeedup {
		fail("W9 probe view open only %.1fx faster than per-note (target >= %.0fx)", probe.SpeedupX, w9MinSpeedup)
	}

	big := pick(quick, 200000, 20000)
	fmt.Println("  Phase B: frame-bound streaming of a view too big for one frame")
	b := w9FrameBound(big)
	results = append(results, b)
	tb := newTable("rows", "pages", "max frame KiB", "total MiB", "one-shot vs limit")
	oneShot := "fits"
	if b.TotalB > wire.MaxFrame {
		oneShot = fmt.Sprintf("%.0f%% of limit — unservable one-shot", 100*float64(b.TotalB)/float64(wire.MaxFrame))
	}
	tb.add(b.Rows, b.Pages, fmt.Sprintf("%.0f", float64(b.MaxFrameB)/1024),
		fmt.Sprintf("%.1f", float64(b.TotalB)/(1<<20)), oneShot)
	tb.print()
	fmt.Printf("  every response frame under MaxFrame (largest %.1f%% of limit)\n",
		100*float64(b.MaxFrameB)/float64(wire.MaxFrame))

	benchW9.save(results)
}
