package session

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bitutil"
)

// reframed returns b with a fresh FCS appended: most mutations of a framed
// message break its checksum, so each target also feeds the fuzzed bytes
// through the parser behind the FCS check.
func reframed(b []byte) []byte {
	return bitutil.AppendFCS(b)
}

// FuzzDecodeMessage: arbitrary bytes must never panic DecodeMessage, and a
// message it accepts must re-encode with AppendMessage and decode back to
// the same message.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range wireCases(f) {
		wire, err := AppendMessage(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-4]) // the body alone, reframed below
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, reframed(b)} {
			m, err := DecodeMessage(in)
			if err != nil {
				continue
			}
			wire, err := AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("decoded %+v does not re-encode: %v", m, err)
			}
			again, err := DecodeMessage(wire)
			if err != nil {
				t.Fatalf("re-encoded %+v does not decode: %v", m, err)
			}
			if !reflect.DeepEqual(again, m) {
				t.Fatalf("round trip changed the message: %+v, then %+v", m, again)
			}
		}
	})
}

// FuzzDecodeChunk: arbitrary bytes must never panic DecodeChunk, and a
// chunk it accepts must re-encode with EncodeChunk and decode back to the
// same sequence number, offset and data.
func FuzzDecodeChunk(f *testing.F) {
	for _, m := range wireCases(f) {
		if m.Kind == KindData {
			f.Add(m.MPDU)
		}
	}
	short, err := EncodeChunk(0x0FFF, 7*1024, []byte{0x5A})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, reframed(b)} {
			seq, off, data, err := DecodeChunk(in)
			if err != nil {
				continue
			}
			mpdu, err := EncodeChunk(seq, off, data)
			if err != nil {
				t.Fatalf("decoded chunk (seq %d, offset %d, %d bytes) does not re-encode: %v", seq, off, len(data), err)
			}
			seq2, off2, data2, err := DecodeChunk(mpdu)
			if err != nil {
				t.Fatalf("re-encoded chunk does not decode: %v", err)
			}
			if seq2 != seq || off2 != off || !bytes.Equal(data2, data) {
				t.Fatalf("round trip changed the chunk: seq %d→%d, offset %d→%d, data equal %v", seq, seq2, off, off2, bytes.Equal(data2, data))
			}
		}
	})
}
