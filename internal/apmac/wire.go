// Package apmac is the uplink MAC of the multi-user access point: an
// association/teardown lifecycle handing out station IDs, slotted
// contention with seeded binary-exponential backoff for the shared uplink,
// and per-station ARQ state reusing internal/mac's Block Ack machinery.
// Control messages ride radio version-4 data frames keyed by station ID,
// with the same kind(1)+body+FCS(4) integrity envelope the session gateway
// uses.
package apmac

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/mac"
	"repro/internal/radio"
)

// ProtocolVersion is the AP MAC handshake version.
const ProtocolVersion = 1

// Kind discriminates AP MAC messages.
type Kind uint8

const (
	// KindAssoc requests association: station → AP, carrying a client
	// nonce so retransmitted requests are idempotent.
	KindAssoc Kind = iota + 1
	// KindAssocAck grants it: station ID, bitmap slot, contention window.
	KindAssocAck
	// KindSound polls a station for channel feedback (AP → station).
	KindSound
	// KindFeedback answers with quantized CSI (sounding.Quantize bytes).
	KindFeedback
	// KindData carries one mac-framed MPDU (either direction).
	KindData
	// KindBlockAck acknowledges MPDUs: ARQ Block Ack bitmap.
	KindBlockAck
	// KindBye tears the association down (either direction).
	KindBye
)

func (k Kind) String() string {
	switch k {
	case KindAssoc:
		return "assoc"
	case KindAssocAck:
		return "assoc-ack"
	case KindSound:
		return "sound"
	case KindFeedback:
		return "feedback"
	case KindData:
		return "data"
	case KindBlockAck:
		return "block-ack"
	case KindBye:
		return "bye"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// maxByeReason bounds the BYE reason string on the wire.
const maxByeReason = 120

// MaxFeedbackBytes bounds a feedback message's CSI payload so the whole
// message — kind(1) + token(4) + CSI + FCS(4) — fits one radio data frame.
const MaxFeedbackBytes = radio.MaxDataPayload - 9

// Msg is a decoded AP MAC message. Fields are populated per Kind; Station
// is copied from the radio header by the transport.
type Msg struct {
	Kind    Kind
	Station uint16

	// Nonce dedupes association retries (Assoc).
	Nonce uint64
	// RXAntennas is the station's receive antenna count (Assoc).
	RXAntennas uint8
	// AssignedID is the AP-granted station ID (AssocAck).
	AssignedID uint16
	// Slot is the granted group-bitmap slot (AssocAck).
	Slot uint8
	// CWMinExp/CWMaxExp are the granted contention-window bounds as
	// exponents: CW spans [2^min, 2^max] slots (AssocAck).
	CWMinExp uint8
	CWMaxExp uint8
	// Token correlates a sounding poll with its feedback
	// (Sound, Feedback).
	Token uint32
	// Feedback is the quantized CSI payload (Feedback). Aliases the
	// decode buffer.
	Feedback []byte
	// MPDU is the mac-framed chunk (Data). Aliases the decode buffer.
	MPDU []byte
	// Ack is the ARQ Block Ack bitmap (BlockAck).
	Ack mac.BlockAck
	// Reason documents a Bye.
	Reason string
}

// AppendMessage serializes m (without the radio framing) onto dst.
func AppendMessage(dst []byte, m *Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, byte(m.Kind))
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		dst = append(dst, scratch[:8]...)
	}
	u32 := func(v uint32) {
		binary.BigEndian.PutUint32(scratch[:4], v)
		dst = append(dst, scratch[:4]...)
	}
	u16 := func(v uint16) {
		binary.BigEndian.PutUint16(scratch[:2], v)
		dst = append(dst, scratch[:2]...)
	}
	switch m.Kind {
	case KindAssoc:
		dst = append(dst, ProtocolVersion)
		u64(m.Nonce)
		dst = append(dst, m.RXAntennas)
	case KindAssocAck:
		u16(m.AssignedID)
		dst = append(dst, m.Slot, m.CWMinExp, m.CWMaxExp)
	case KindSound:
		u32(m.Token)
	case KindFeedback:
		if len(m.Feedback) == 0 || len(m.Feedback) > MaxFeedbackBytes {
			return nil, fmt.Errorf("apmac: feedback payload %d outside [1, %d]", len(m.Feedback), MaxFeedbackBytes)
		}
		u32(m.Token)
		dst = append(dst, m.Feedback...)
	case KindData:
		if len(m.MPDU) == 0 {
			return nil, fmt.Errorf("apmac: data message without an MPDU")
		}
		dst = append(dst, m.MPDU...)
	case KindBlockAck:
		u16(m.Ack.Start)
		u64(m.Ack.Bitmap)
	case KindBye:
		r := m.Reason
		if len(r) > maxByeReason {
			r = r[:maxByeReason]
		}
		dst = append(dst, byte(len(r)))
		dst = append(dst, r...)
	default:
		return nil, fmt.Errorf("apmac: cannot encode message kind %v", m.Kind)
	}
	framed := bitutil.AppendFCS(dst[start:])
	return append(dst[:start], framed...), nil
}

// DecodeMessage parses one AP MAC message payload (the bytes of a radio
// data frame). The returned Msg's MPDU and Feedback alias b. Corrupt or
// truncated input, and fields AppendMessage never writes (feedback over
// MaxFeedbackBytes, a bye reason over 120 bytes), yield typed errors,
// never panics.
func DecodeMessage(b []byte) (*Msg, error) {
	body, ok := bitutil.CheckFCS(b)
	if !ok {
		return nil, fmt.Errorf("apmac: message FCS check failed")
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("apmac: empty message")
	}
	m := &Msg{Kind: Kind(body[0])}
	body = body[1:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("apmac: %v message body %d bytes, need %d", m.Kind, len(body), n)
		}
		return nil
	}
	switch m.Kind {
	case KindAssoc:
		if err := need(10); err != nil {
			return nil, err
		}
		if body[0] != ProtocolVersion {
			return nil, fmt.Errorf("apmac: protocol version %d, want %d", body[0], ProtocolVersion)
		}
		m.Nonce = binary.BigEndian.Uint64(body[1:])
		m.RXAntennas = body[9]
	case KindAssocAck:
		if err := need(5); err != nil {
			return nil, err
		}
		m.AssignedID = binary.BigEndian.Uint16(body[0:])
		m.Slot = body[2]
		m.CWMinExp = body[3]
		m.CWMaxExp = body[4]
	case KindSound:
		if err := need(4); err != nil {
			return nil, err
		}
		m.Token = binary.BigEndian.Uint32(body[0:])
	case KindFeedback:
		if err := need(4); err != nil {
			return nil, err
		}
		m.Token = binary.BigEndian.Uint32(body[0:])
		if len(body) == 4 || len(body) > 4+MaxFeedbackBytes {
			return nil, fmt.Errorf("apmac: feedback CSI %d bytes outside [1, %d]", len(body)-4, MaxFeedbackBytes)
		}
		m.Feedback = body[4:]
	case KindData:
		if len(body) == 0 {
			return nil, fmt.Errorf("apmac: data message without an MPDU")
		}
		m.MPDU = body
	case KindBlockAck:
		if err := need(10); err != nil {
			return nil, err
		}
		m.Ack.Start = binary.BigEndian.Uint16(body[0:])
		m.Ack.Bitmap = binary.BigEndian.Uint64(body[2:])
	case KindBye:
		if err := need(1); err != nil {
			return nil, err
		}
		n := int(body[0])
		if n > maxByeReason {
			return nil, fmt.Errorf("apmac: bye reason %d bytes, at most %d", n, maxByeReason)
		}
		if len(body) < 1+n {
			return nil, fmt.Errorf("apmac: bye reason %d bytes, have %d", n, len(body)-1)
		}
		m.Reason = string(body[1 : 1+n])
	default:
		return nil, fmt.Errorf("apmac: unknown message kind %d", uint8(m.Kind))
	}
	return m, nil
}
