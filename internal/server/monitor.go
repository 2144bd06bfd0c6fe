package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// The event monitor: Domino's event task watches database activity and
// writes threshold events to the log. Here the monitor consumes each
// database's changefeed (via OnChange) rather than hooking the writer, so
// a slow log write can only ever delay the monitor's own feed cursor —
// never a save. Server-private databases (mail.box, log.nsf, catalog.nsf)
// are not monitored; monitoring the log would feed back into itself.

// LogMonitor is the log kind for activity-threshold events.
const LogMonitor = "monitor"

// monitorState tracks per-database activity counters.
type monitorState struct {
	mu        sync.Mutex
	enabled   bool
	threshold int
	hooked    map[string]bool
	counts    map[string]uint64 // total changes observed per db path
	pending   map[string]uint64 // changes since the last threshold event
}

// EnableMonitor starts the event monitor on every database the server has
// opened or will open. Each time a monitored database accumulates
// threshold changes, the monitor writes a LogMonitor event to log.nsf with
// the database path, the running total, and the database's changefeed
// position. threshold <= 0 uses 100.
func (s *Server) EnableMonitor(threshold int) {
	if threshold <= 0 {
		threshold = 100
	}
	s.monitor.mu.Lock()
	s.monitor.enabled = true
	s.monitor.threshold = threshold
	if s.monitor.hooked == nil {
		s.monitor.hooked = make(map[string]bool)
		s.monitor.counts = make(map[string]uint64)
		s.monitor.pending = make(map[string]uint64)
	}
	s.monitor.mu.Unlock()
	s.mu.Lock()
	dbs := make(map[string]*core.Database, len(s.dbs))
	for path, db := range s.dbs {
		dbs[path] = db
	}
	s.mu.Unlock()
	for path, db := range dbs {
		s.hookMonitorDB(path, db)
	}
}

// hookMonitorDB subscribes the monitor to one database's changefeed.
func (s *Server) hookMonitorDB(path string, db *core.Database) {
	if localOnlyDBs[path] {
		return
	}
	m := &s.monitor
	m.mu.Lock()
	if !m.enabled || m.hooked[path] {
		m.mu.Unlock()
		return
	}
	m.hooked[path] = true
	m.mu.Unlock()
	db.OnChange(func(n *nsf.Note) {
		m.mu.Lock()
		m.counts[path]++
		m.pending[path]++
		total := m.counts[path]
		fire := m.pending[path] >= uint64(m.threshold)
		if fire {
			m.pending[path] = 0
		}
		m.mu.Unlock()
		if fire {
			fs := db.Stats().Feed
			s.LogEvent(LogMonitor,
				fmt.Sprintf("%s: %d changes (feed usn=%d, max lag=%d)", path, total, fs.LastUSN, fs.MaxLag),
				map[string]string{"Path": path})
		}
	})
}

// ActivityCounts returns total observed changes per monitored database.
func (s *Server) ActivityCounts() map[string]uint64 {
	s.monitor.mu.Lock()
	defer s.monitor.mu.Unlock()
	out := make(map[string]uint64, len(s.monitor.counts))
	for path, c := range s.monitor.counts {
		out[path] = c
	}
	return out
}

// MonitorReport renders one line per monitored database, sorted by path,
// followed by a server health line (availability, admission and panic
// counters) and one line per mesh link (rounds, ships, drops, breaker) —
// an administrative snapshot of activity, feed health, and survivability.
func (s *Server) MonitorReport() []string {
	counts := s.ActivityCounts()
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]string, 0, len(paths)+1)
	for _, p := range paths {
		line := fmt.Sprintf("%s: %d changes", p, counts[p])
		if db, ok := s.DB(p); ok {
			fs := db.Stats().Feed
			line += fmt.Sprintf(", feed usn=%d lag=%d", fs.LastUSN, fs.MaxLag)
		}
		out = append(out, line)
	}
	h := s.Health()
	state := "OPEN"
	if h.State == wire.StateRestricted {
		state = "RESTRICTED"
	}
	health := fmt.Sprintf("server: availability=%d state=%s inflight=%d queued=%d sheds=%d panics=%d dispatched=%d deadline-sheds=%d deadline-aborts=%d",
		h.Index, state, h.InFlight, h.Queued, h.Sheds, h.Panics,
		h.Dispatched, h.DeadlineSheds, h.DeadlineAborts)
	out = append(out, health)
	// Mesh links (cluster mates included): one line per replication link
	// with its live counters, so the report shows each edge's health at a
	// glance.
	if m := s.Mesh(); m != nil {
		for _, st := range m.Status() {
			out = append(out, "mesh "+st.String())
		}
	}
	// Placement records, so the report shows where each database routes.
	for _, p := range s.opts.Directory.Placements() {
		homed := ""
		if !p.HasHome(s.opts.Name) {
			homed = " (not homed here)"
		}
		out = append(out, fmt.Sprintf("placement %s: gen=%d replicas=%d home=%s%s",
			p.Path, p.Generation, p.Replicas, strings.Join(p.Home, ","), homed))
	}
	return out
}
