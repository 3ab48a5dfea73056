package session

import (
	"bytes"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/mac"
)

// wireCases is one message of every kind, shared by the round-trip test
// and the fuzz targets' seed corpora.
func wireCases(tb testing.TB) []Msg {
	mpdu, err := EncodeChunk(7, 4096, []byte("payload bytes"))
	if err != nil {
		tb.Fatal(err)
	}
	return []Msg{
		{Kind: KindHello, Total: 1 << 20, ChunkSize: 1024},
		{Kind: KindHelloAck, ChunkSize: 1024, Credit: 32},
		{Kind: KindData, MPDU: mpdu},
		{Kind: KindAck, Ack: mac.BlockAck{Start: 17, Bitmap: 0xDEADBEEF}, CumOffset: 99 * 1024, Credit: 12},
		{Kind: KindResume, Total: 1 << 20, ChunkSize: 1024},
		{Kind: KindResumeAck, ChunkSize: 1024, Credit: 32, CumOffset: 512 * 1024},
		{Kind: KindFin, Total: 1 << 20},
		{Kind: KindFinAck},
		{Kind: KindReset, Reason: "busy"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, want := range wireCases(t) {
		t.Run(want.Kind.String(), func(t *testing.T) {
			wire, err := AppendMessage(nil, &want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeMessage(wire)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.Total != want.Total ||
				got.ChunkSize != want.ChunkSize || got.Credit != want.Credit ||
				got.Ack != want.Ack || got.CumOffset != want.CumOffset ||
				got.Reason != want.Reason || !bytes.Equal(got.MPDU, want.MPDU) {
				t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
			}
		})
	}
}

func TestMessageRejectsCorruption(t *testing.T) {
	wire, err := AppendMessage(nil, &Msg{Kind: KindAck, CumOffset: 12345, Credit: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must fail the FCS, so a mangled datagram can
	// never forge an acknowledgement.
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x40
		if _, err := DecodeMessage(bad); err == nil {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
	// Truncations at every length must fail cleanly too.
	for n := range wire {
		if _, err := DecodeMessage(wire[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestChunkRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, 1024)
	mpdu, err := EncodeChunk(0x0FFF, 7*1024, data)
	if err != nil {
		t.Fatal(err)
	}
	seq, off, got, err := DecodeChunk(mpdu)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0x0FFF || off != 7*1024 || !bytes.Equal(got, data) {
		t.Fatalf("chunk round trip: seq %d off %d len %d", seq, off, len(got))
	}
	if _, err := EncodeChunk(0, 0, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if _, err := EncodeChunk(0, 0, make([]byte, MaxChunkBytes+1)); err == nil {
		t.Fatal("oversized chunk accepted")
	}
	if _, _, _, err := DecodeChunk(mpdu[:len(mpdu)-1]); err == nil {
		t.Fatal("truncated MPDU accepted")
	}
	// A valid MAC frame carrying more than MaxChunkBytes is not a chunk
	// EncodeChunk could have written: here the largest chunk's MPDU,
	// FCS included, wrapped in a second FCS.
	full, err := EncodeChunk(1, 0, make([]byte, MaxChunkBytes))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeChunk(bitutil.AppendFCS(full)); err == nil {
		t.Fatal("oversized chunk decoded")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if _, err := AppendMessage(nil, &Msg{Kind: Kind(200)}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}
