package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nsf"
	"repro/internal/repl"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{1},
		bytes.Repeat([]byte("x"), 100000),
	}
	for i, p := range payloads {
		if err := writeFrame(&buf, Header{ID: uint32(i), Budget: 9}, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for i, want := range payloads {
		h, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if h.ID != uint32(i) || h.Budget != 9 {
			t.Fatalf("header = %+v, want ID %d budget 9", h, i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Header{}, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	// A hostile header claiming an enormous frame must be rejected before
	// allocation.
	hostile := make([]byte, headerLen)
	copy(hostile, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); err == nil {
		t.Error("hostile frame header accepted")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, Header{ID: 1}, []byte("hello world"))
	raw := buf.Bytes()[:headerLen+4] // header + partial body
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream error = %v, want EOF", io.EOF)
	}
}

// TestFrameAllocationBoundedByArrivedBytes: a header that declares MaxFrame
// and then delivers 10 bytes must fail having allocated about what arrived,
// not the 64 MiB it claimed. The server reads frames from unauthenticated
// connections, so the declared length must not be trusted for sizing.
func TestFrameAllocationBoundedByArrivedBytes(t *testing.T) {
	raw := make([]byte, headerLen, headerLen+10)
	binary.LittleEndian.PutUint32(raw, MaxFrame)
	raw = append(raw, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated MaxFrame frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("ReadFrame allocated %d bytes for a 10-byte body", grew)
	}
}

func TestCodecScalars(t *testing.T) {
	e := NewEnc(OpHello)
	e.U8(7).U32(0xDEADBEEF).U64(1<<62 + 5).Str("héllo").Blob([]byte{1, 2, 3})
	u := nsf.NewUNID()
	e.UNID(u).Raw([]byte{9, 9})
	payload := e.Bytes()
	if Op(payload[0]) != OpHello {
		t.Fatalf("op byte = %#x", payload[0])
	}
	d := NewDec(payload[1:])
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<62+5 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.UNID(); got != u {
		t.Errorf("UNID = %v", got)
	}
	if got := d.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("Raw = %v", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestCodecNoteAndSummary(t *testing.T) {
	n := nsf.NewNote(nsf.ClassDocument)
	n.ID = 12
	n.OID.Seq = 3
	n.OID.SeqTime = 999
	n.SetText("Subject", "wire trip")
	s := repl.SummaryOf(n)
	st := repl.ApplyStats{Added: 1, Updated: 2, Deleted: 3, Conflicts: 4, Merged: 5, Skipped: 6}

	e := NewEnc(OpApply).Note(n).Summary(s).ApplyStats(st)
	d := NewDec(e.Bytes()[1:])
	gotN := d.Note()
	gotS := d.Summary()
	gotSt := d.ApplyStats()
	if d.Err() != nil {
		t.Fatalf("decode: %v", d.Err())
	}
	if gotN.Text("Subject") != "wire trip" || gotN.OID != n.OID || gotN.ID != n.ID {
		t.Errorf("note mismatch: %+v", gotN)
	}
	if gotS != s {
		t.Errorf("summary = %+v, want %+v", gotS, s)
	}
	if gotSt != st {
		t.Errorf("stats = %+v, want %+v", gotSt, st)
	}
}

func TestDecErrorsStickAndPropagate(t *testing.T) {
	d := NewDec([]byte{1})
	_ = d.U32() // too short: sets the error
	if d.Err() == nil {
		t.Fatal("short read did not error")
	}
	// All subsequent reads return zero values without panicking.
	if d.U8() != 0 || d.U64() != 0 || d.Str() != "" || d.Blob() != nil || d.Note() != nil {
		t.Error("reads after error returned data")
	}
}

func TestDecRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		d := NewDec(buf)
		// Exercise every reader; none may panic.
		d.U8()
		d.Str()
		d.Summary()
		d.Note()
		d.ApplyStats()
	}
}

func TestDecBlobRejectsHugeLength(t *testing.T) {
	// A uvarint length far beyond the frame cap must error cleanly.
	e := NewEnc(OpHello)
	e.buf = append(e.buf, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	d := NewDec(e.Bytes()[1:])
	if d.Blob() != nil || d.Err() == nil {
		t.Error("huge blob length accepted")
	}
}

func TestStrHandlesLongStrings(t *testing.T) {
	long := strings.Repeat("a", 1<<16)
	e := NewEnc(OpHello).Str(long)
	d := NewDec(e.Bytes()[1:])
	if got := d.Str(); got != long {
		t.Errorf("long string corrupted: %d bytes", len(got))
	}
}
