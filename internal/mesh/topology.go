package mesh

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// TopoLink is one line of a topology file: a link plus the server it
// belongs to. A shared topology file describes the whole mesh; each server
// takes the links whose Server matches its own name.
type TopoLink struct {
	// Server is the server that runs the link (the source side).
	Server string
	Link   Link
}

// ParseTopology reads a mesh topology description: one link per line,
//
//	link NAME SRC DST GLOB hot|cold INTERVAL pull|push|both [FORMULA...]
//
// Blank lines and #-comments are ignored; the leading "link" keyword is
// optional. INTERVAL is a Go duration ("30s", "5m"). Everything after the
// direction is the selection formula, verbatim.
func ParseTopology(r io.Reader) ([]TopoLink, error) {
	var out []TopoLink
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "link" {
			fields = fields[1:]
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("topology line %d: want NAME SRC DST GLOB hot|cold INTERVAL pull|push|both [FORMULA], got %q", lineNo, line)
		}
		name, src, dst, glob := fields[0], fields[1], fields[2], fields[3]
		class, err := ParseClass(fields[4])
		if err != nil {
			return nil, fmt.Errorf("topology line %d: %w", lineNo, err)
		}
		interval, err := time.ParseDuration(fields[5])
		if err != nil {
			return nil, fmt.Errorf("topology line %d: bad interval %q: %v", lineNo, fields[5], err)
		}
		dir, err := ParseDirection(fields[6])
		if err != nil {
			return nil, fmt.Errorf("topology line %d: %w", lineNo, err)
		}
		formula := strings.Join(fields[7:], " ")
		key := src + "!!" + name
		if seen[key] {
			return nil, fmt.Errorf("topology line %d: duplicate link %s on server %s", lineNo, name, src)
		}
		seen[key] = true
		out = append(out, TopoLink{Server: src, Link: Link{
			Name:      name,
			Peer:      dst,
			Glob:      glob,
			Formula:   formula,
			Direction: dir,
			Class:     class,
			Interval:  interval,
		}})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LinksFor filters a topology down to the links one server runs.
func LinksFor(topo []TopoLink, server string) []Link {
	var out []Link
	for _, t := range topo {
		if strings.EqualFold(t.Server, server) {
			out = append(out, t.Link)
		}
	}
	return out
}

// Ring builds a ring topology over the servers: each server links to its
// successor with the template's glob/formula/class/interval/direction.
// With Direction Both (the recommended setting) changes flow around the
// ring in both directions and any single severed edge leaves the mesh
// connected.
func Ring(servers []string, template Link) []TopoLink {
	out := make([]TopoLink, 0, len(servers))
	for i, s := range servers {
		l := template
		l.Name = fmt.Sprintf("ring-%d", i)
		l.Peer = servers[(i+1)%len(servers)]
		out = append(out, TopoLink{Server: s, Link: l})
	}
	return out
}

// HubSpoke builds a hub-and-spoke topology: every spoke links to the hub.
// The hub runs no links of its own — spokes both pull and push, the
// Domino pattern for branch servers replicating with a hub.
func HubSpoke(hub string, spokes []string, template Link) []TopoLink {
	out := make([]TopoLink, 0, len(spokes))
	for i, s := range spokes {
		l := template
		l.Name = fmt.Sprintf("spoke-%d", i)
		l.Peer = hub
		out = append(out, TopoLink{Server: s, Link: l})
	}
	return out
}

// ClusterLink is the link a cluster mate gets: Domino's cluster replicator
// as a mesh link. It covers every replicable database, selects everything,
// and ships each committed change to the mate as it happens. It only
// pushes, because the mate's own cluster link pushes the other way.
func ClusterLink(mate string) Link {
	return Link{Name: "cluster-" + mate, Peer: mate, Direction: Push, Class: Hot}
}
