package wire

import (
	"time"

	"repro/internal/mesh"
)

// MeshLink appends a mesh link definition.
func (e *Enc) MeshLink(l mesh.Link) *Enc {
	return e.Str(l.Name).Str(l.Peer).Str(l.Glob).Str(l.Formula).
		U8(byte(l.Direction)).U8(byte(l.Class)).
		U64(uint64(l.Interval))
}

// MeshLink reads a mesh link definition.
func (d *Dec) MeshLink() mesh.Link {
	return mesh.Link{
		Name:      d.Str(),
		Peer:      d.Str(),
		Glob:      d.Str(),
		Formula:   d.Str(),
		Direction: mesh.Direction(d.U8()),
		Class:     mesh.Class(d.U8()),
		Interval:  time.Duration(d.U64()),
	}
}

// MeshLinkStatus appends a link's live status.
func (e *Enc) MeshLinkStatus(st mesh.LinkStatus) *Enc {
	e.MeshLink(st.Link)
	broken := byte(0)
	if st.BreakerOpen {
		broken = 1
	}
	return e.U64(st.Rounds).U64(st.Failures).U32(uint32(st.ConsecFails)).U8(broken).
		U64(st.SkippedDBs).U64(st.NotesIn).U64(st.NotesOut).
		U64(st.BytesIn).U64(st.BytesOut).U64(st.Shipped).U64(st.Dropped).
		U64(uint64(st.Lag)).Str(st.Note)
}

// MeshLinkStatus reads a link's live status.
func (d *Dec) MeshLinkStatus() mesh.LinkStatus {
	st := mesh.LinkStatus{Link: d.MeshLink()}
	st.Rounds = d.U64()
	st.Failures = d.U64()
	st.ConsecFails = int(d.U32())
	st.BreakerOpen = d.U8() == 1
	st.SkippedDBs = d.U64()
	st.NotesIn = d.U64()
	st.NotesOut = d.U64()
	st.BytesIn = d.U64()
	st.BytesOut = d.U64()
	st.Shipped = d.U64()
	st.Dropped = d.U64()
	st.Lag = time.Duration(d.U64())
	st.Note = d.Str()
	return st
}
