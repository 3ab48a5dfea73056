package apmac

import (
	"reflect"
	"testing"

	"repro/internal/bitutil"
)

// FuzzDecodeMessage: arbitrary bytes must never panic DecodeMessage, and a
// message it accepts must re-encode with AppendMessage and decode back to
// the same message. Most mutations break the FCS, so the fuzzed bytes are
// also fed through the parser behind the check with a fresh FCS appended.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range wireCases() {
		wire, err := AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-4])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, bitutil.AppendFCS(b)} {
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
