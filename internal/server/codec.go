package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"

	rfidclean "repro"
	"repro/internal/persist"
)

// Binary wire codec for the hot stream endpoints. JSON dominates the cost of
// a small readings POST — a reading is two uvarints plus its reader IDs here,
// against ~40 bytes of object syntax there — so high-rate feeders can opt in
// with Content-Type: application/x-rfidclean on the request and Accept:
// application/x-rfidclean for the response. A message is one persist frame
// (4-byte little-endian length, 4-byte CRC32 of the payload — the exact
// format the durability log uses on disk), whose payload starts with a kind
// tag byte:
//
//	0x01 readings: uvarint count, then per reading a varint timestamp, a
//	     uvarint reader count, and that many varint reader IDs
//	0x03 status:   uvarint-prefixed id and deployment strings, varint time,
//	     uvarint readings/frontier, a flags byte (bit 0 = dead), then a
//	     uvarint entry count of (uvarint-prefixed location name, 8-byte
//	     little-endian IEEE-754 probability) pairs
//
// Tag 0x02 was the status layout with a beam uvarint after the frontier. It
// is retired, not reused, so a decoder of either layout rejects the other's
// frames by kind instead of misreading the flags.
//
// Integers are encoding/binary varints. Error responses are always JSON
// apiError regardless of negotiation — a client that cannot parse them is
// debugging blind.

// ContentTypeBinary is the media type that selects the binary stream codec.
const ContentTypeBinary = "application/x-rfidclean"

// Payload kind tags, the first byte of every frame payload.
const (
	codecKindReadings byte = 0x01
	codecKindStatus   byte = 0x03
)

// requestIsBinary reports whether the request body is binary-codec encoded.
func requestIsBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == ContentTypeBinary
}

// acceptsBinary reports whether the client asked for a binary-codec
// response. Only an explicit mention opts in; wildcards keep JSON, and so
// does an explicit refusal: per RFC 9110 §12.4.2 a quality value of 0 means
// "not acceptable", so Accept: application/x-rfidclean;q=0 must select JSON.
// A malformed q is treated as no opt-in rather than guessed at.
func acceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != ContentTypeBinary {
			continue
		}
		if q, ok := params["q"]; ok {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || v <= 0 {
				continue
			}
		}
		return true
	}
	return false
}

// EncodeStreamReadings encodes a readings batch as one binary-codec frame —
// the body cmd/datagen -encode-stream writes and POST readings accepts.
func EncodeStreamReadings(readings []rfidclean.Reading) []byte {
	p := []byte{codecKindReadings}
	p = binary.AppendUvarint(p, uint64(len(readings)))
	for _, rd := range readings {
		p = binary.AppendVarint(p, int64(rd.Time))
		ids := rd.Readers.IDs()
		p = binary.AppendUvarint(p, uint64(len(ids)))
		for _, id := range ids {
			p = binary.AppendVarint(p, int64(id))
		}
	}
	return persist.AppendFrame(nil, p)
}

// DecodeStreamReadings parses a binary-codec readings frame.
func DecodeStreamReadings(body []byte) ([]rfidclean.Reading, error) {
	c, err := openFrame(body, codecKindReadings)
	if err != nil {
		return nil, err
	}
	count := c.uvarint()
	if c.err == nil && count > uint64(len(c.buf)) {
		// Each reading costs at least one byte, so a count beyond the
		// remaining payload is corrupt, not a huge allocation request.
		return nil, fmt.Errorf("server: reading count %d exceeds payload", count)
	}
	readings := make([]rfidclean.Reading, 0, count)
	for i := uint64(0); i < count && c.err == nil; i++ {
		t := int(c.varint())
		n := c.uvarint()
		if c.err == nil && n > uint64(len(c.buf)) {
			return nil, fmt.Errorf("server: reader count %d exceeds payload", n)
		}
		ids := make([]int, 0, n)
		for j := uint64(0); j < n && c.err == nil; j++ {
			ids = append(ids, int(c.varint()))
		}
		readings = append(readings, rfidclean.Reading{Time: t, Readers: rfidclean.NewReaderSet(ids...)})
	}
	return readings, c.close()
}

// EncodeStreamStatus encodes a StreamStatus as one binary-codec frame.
func EncodeStreamStatus(st StreamStatus) []byte {
	p := []byte{codecKindStatus}
	p = appendCodecString(p, st.ID)
	p = appendCodecString(p, st.Deployment)
	p = binary.AppendVarint(p, int64(st.Time))
	p = binary.AppendUvarint(p, uint64(st.Readings))
	p = binary.AppendUvarint(p, uint64(st.Frontier))
	var flags byte
	if st.Dead {
		flags |= 1
	}
	p = append(p, flags)
	p = binary.AppendUvarint(p, uint64(len(st.Current)))
	for _, lp := range st.Current {
		p = appendCodecString(p, lp.Location)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(lp.P))
	}
	return persist.AppendFrame(nil, p)
}

// DecodeStreamStatus parses a binary-codec status frame — the client-side
// half, used by tests and external consumers.
func DecodeStreamStatus(body []byte) (StreamStatus, error) {
	c, err := openFrame(body, codecKindStatus)
	if err != nil {
		return StreamStatus{}, err
	}
	var st StreamStatus
	st.ID = c.str()
	st.Deployment = c.str()
	st.Time = int(c.varint())
	st.Readings = int(c.uvarint())
	st.Frontier = int(c.uvarint())
	st.Dead = c.byte()&1 != 0
	count := c.uvarint()
	if c.err == nil && count > uint64(len(c.buf)) {
		return StreamStatus{}, fmt.Errorf("server: entry count %d exceeds payload", count)
	}
	if count > 0 {
		st.Current = make([]LocationProb, 0, count)
	}
	for i := uint64(0); i < count && c.err == nil; i++ {
		name := c.str()
		bits := binary.LittleEndian.Uint64(c.bytes(8))
		st.Current = append(st.Current, LocationProb{Location: name, P: math.Float64frombits(bits)})
	}
	return st, c.close()
}

// appendCodecString appends a uvarint-length-prefixed string.
func appendCodecString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// openFrame unwraps one persist frame, checks the kind tag, and returns a
// cursor over the rest of the payload. Trailing bytes after the frame are
// rejected — a stream message is exactly one frame.
func openFrame(body []byte, kind byte) (*codecCursor, error) {
	payload, rest, err := persist.ParseFrame(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server: %d trailing bytes after the frame", len(rest))
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("server: empty frame payload")
	}
	if payload[0] != kind {
		return nil, fmt.Errorf("server: payload kind 0x%02x, want 0x%02x", payload[0], kind)
	}
	return &codecCursor{buf: payload[1:]}, nil
}

// codecCursor reads varint-encoded fields off a payload, latching the first
// error so callers can decode a whole message and check once.
type codecCursor struct {
	buf []byte
	err error
}

func (c *codecCursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("server: truncated or malformed %s", what)
	}
}

func (c *codecCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("uvarint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

func (c *codecCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.fail("varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

func (c *codecCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.buf) == 0 {
		c.fail("byte")
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// bytes returns the next n payload bytes (aliasing, not copied); on underrun
// it latches an error and returns a zero-filled slice so fixed-width decodes
// stay in bounds.
func (c *codecCursor) bytes(n int) []byte {
	if c.err == nil && len(c.buf) >= n {
		b := c.buf[:n]
		c.buf = c.buf[n:]
		return b
	}
	c.fail("bytes")
	return make([]byte, n)
}

func (c *codecCursor) str() string {
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.buf)) {
		c.fail("string")
		return ""
	}
	return string(c.bytes(int(n)))
}

// close finishes a decode: the latched error if any, else an error for
// unconsumed payload bytes.
func (c *codecCursor) close() error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("server: %d unconsumed payload bytes", len(c.buf))
	}
	return nil
}
