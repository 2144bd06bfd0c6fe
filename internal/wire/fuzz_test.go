package wire

import (
	"bytes"
	"io"
	"testing"
)

// writeFrame frames a raw payload through Enc.WriteFrame, for tests that
// hand-build (or deliberately corrupt) payloads.
func writeFrame(w io.Writer, h Header, payload []byte) error {
	e := &Enc{buf: append(make([]byte, headerLen), payload...)}
	return e.WriteFrame(w, h)
}

// frameSeed frames a payload under h the way Enc.WriteFrame does.
func frameSeed(h Header, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, h, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader — the
// first thing every server connection and client response passes through.
// It must never panic, and any frame it accepts must round-trip through
// Enc.WriteFrame byte-identically, header included. A header that declares a
// huge frame it never delivers costs only the bytes that arrive, so no
// input needs skipping.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameSeed(Header{}, nil))
	f.Add(frameSeed(Header{ID: 1}, []byte{byte(OpHello)}))
	f.Add(frameSeed(Header{ID: 7, Budget: 250}, NewEnc(OpGetNote).U32(1).Str("db.nsf").Bytes()))
	f.Add(frameSeed(Header{ID: 7}, NewResp(OpGetNote, StatusOK).U32(3).Bytes()))
	f.Add(frameSeed(Header{ID: 7}, []byte{byte(OpCancel)}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	f.Add([]byte{1, 0})
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var out bytes.Buffer
		if err := writeFrame(&out, h, payload); err != nil {
			t.Fatalf("re-write of accepted frame failed: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatal("re-written frame differs from the bytes read")
		}
		h2, got, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-read of accepted frame failed: %v", err)
		}
		if h2 != h || !bytes.Equal(got, payload) {
			t.Fatal("frame round trip changed the header or payload")
		}
	})
}
