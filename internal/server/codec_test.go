package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"

	rfidclean "repro"
	"repro/internal/persist"
)

// codecReadings is a readings batch with multi-reader, empty and sparse
// timestamps.
func codecReadings() []rfidclean.Reading {
	return []rfidclean.Reading{
		{Time: 0, Readers: rfidclean.NewReaderSet(2, 0, 7)},
		{Time: 1, Readers: rfidclean.NewReaderSet()}, // missed read
		{Time: 2, Readers: rfidclean.NewReaderSet(5)},
		{Time: 300, Readers: rfidclean.NewReaderSet(1, 2, 3, 4, 128)},
	}
}

// codecStatus is a dead session's status with a three-entry distribution.
func codecStatus() StreamStatus {
	return StreamStatus{
		ID:         "s42",
		Deployment: "d1",
		Time:       17,
		Readings:   18,
		Frontier:   5,
		Dead:       true,
		Current: []LocationProb{
			{Location: "corridor", P: 0.625},
			{Location: "lab", P: 0.375},
			{Location: "office", P: math.Nextafter(0, 1)}, // smallest subnormal survives
		},
	}
}

// codecCorrupt returns frames every decoder must reject, keyed by what is
// wrong with them.
func codecCorrupt() map[string][]byte {
	good := EncodeStreamReadings([]rfidclean.Reading{{Time: 0, Readers: rfidclean.NewReaderSet(1)}})
	return map[string][]byte{
		"empty body":      nil,
		"truncated frame": good[:len(good)-1],
		"trailing bytes":  append(append([]byte(nil), good...), 0x00),
		"status frame":    EncodeStreamStatus(StreamStatus{ID: "s1"}),
		// A payload claiming more readings than bytes remain must error,
		// not allocate gigabytes.
		"absurd count": persist.AppendFrame(nil, []byte{codecKindReadings, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		// Truncated inside the varint stream (CRC recomputed so only the
		// codec layer can object): says 2 readings, carries ~1.
		"short payload": persist.AppendFrame(nil, []byte{codecKindReadings, 2, 0, 1, 2}),
	}
}

func TestCodecReadingsRoundTrip(t *testing.T) {
	want := codecReadings()
	got, err := DecodeStreamReadings(EncodeStreamReadings(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Time != want[i].Time || !got[i].Readers.Equal(want[i].Readers) {
			t.Errorf("reading %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got, err := DecodeStreamReadings(EncodeStreamReadings(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

func TestCodecStatusRoundTrip(t *testing.T) {
	want := codecStatus()
	got, err := DecodeStreamStatus(EncodeStreamStatus(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Deployment != want.Deployment || got.Time != want.Time ||
		got.Readings != want.Readings || got.Frontier != want.Frontier ||
		got.Dead != want.Dead || len(got.Current) != len(want.Current) {
		t.Fatalf("status = %+v, want %+v", got, want)
	}
	for i := range want.Current {
		if got.Current[i].Location != want.Current[i].Location ||
			math.Float64bits(got.Current[i].P) != math.Float64bits(want.Current[i].P) {
			t.Errorf("entry %d = %+v, want bit-identical %+v", i, got.Current[i], want.Current[i])
		}
	}

	// A fresh session: Time -1, no distribution.
	fresh := StreamStatus{ID: "s1", Deployment: "d1", Time: -1}
	got, err = DecodeStreamStatus(EncodeStreamStatus(fresh))
	if err != nil || got.Time != -1 || got.Current != nil {
		t.Fatalf("fresh status round trip = %+v, %v", got, err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	for name, buf := range codecCorrupt() {
		if _, err := DecodeStreamReadings(buf); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	good := EncodeStreamReadings([]rfidclean.Reading{{Time: 0, Readers: rfidclean.NewReaderSet(1)}})
	if _, err := DecodeStreamStatus(good); err == nil {
		t.Error("status decode accepted a readings frame")
	}
	// A status frame of the retired 0x02 layout (a beam uvarint after the
	// frontier) must fail on its kind tag, not decode shifted by one field.
	old := appendCodecString([]byte{0x02}, "s1")
	old = appendCodecString(old, "d1")
	old = append(old, 8, 5, 2, 0, 1, 0) // time 4, readings 5, frontier 2, beam 0, dead, no entries
	if _, err := DecodeStreamStatus(persist.AppendFrame(nil, old)); err == nil || !strings.Contains(err.Error(), "payload kind 0x02") {
		t.Errorf("status decode of a 0x02 frame: %v, want a kind error", err)
	}
}

// codecSeeds is the fuzz corpus: every codec fixture, well-formed or not,
// as the frame bytes a client would send.
func codecSeeds() [][]byte {
	seeds := [][]byte{
		EncodeStreamReadings(codecReadings()),
		EncodeStreamReadings(nil),
		EncodeStreamReadings(benchReadings()[:20]),
		EncodeStreamStatus(codecStatus()),
		EncodeStreamStatus(StreamStatus{ID: "s1", Deployment: "d1", Time: -1}),
	}
	corrupt := codecCorrupt()
	names := make([]string, 0, len(corrupt))
	for name := range corrupt {
		names = append(names, name)
	}
	sort.Strings(names) // stable seed numbering
	for _, name := range names {
		seeds = append(seeds, corrupt[name])
	}
	return seeds
}

// oneFrame reports whether b is exactly one intact frame of the given
// payload kind — the framing every accepted message must have.
func oneFrame(b []byte, kind byte) bool {
	payload, rest, err := persist.ParseFrame(b)
	return err == nil && len(rest) == 0 && len(payload) > 0 && payload[0] == kind
}

// FuzzDecodeStreamReadings: no input panics the decoder; anything that is
// not one intact readings frame, including an accepted frame cut short, is
// an error; and an accepted batch survives re-encoding,
// decode(encode(decode(b))) == decode(b).
func FuzzDecodeStreamReadings(f *testing.F) {
	for _, seed := range codecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeStreamReadings(b)
		if err != nil {
			return
		}
		if !oneFrame(b, codecKindReadings) {
			t.Fatalf("accepted a malformed frame %x", b)
		}
		if _, err := DecodeStreamReadings(b[:len(b)-1]); err == nil {
			t.Fatalf("accepted a truncated frame %x", b[:len(b)-1])
		}
		again, err := DecodeStreamReadings(EncodeStreamReadings(got))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip changed the batch size: %d -> %d", len(got), len(again))
		}
		for i := range got {
			if again[i].Time != got[i].Time || !again[i].Readers.Equal(got[i].Readers) {
				t.Fatalf("reading %d round-tripped to %+v, want %+v", i, again[i], got[i])
			}
		}
	})
}

// FuzzDecodeStreamStatus is FuzzDecodeStreamReadings for status frames;
// probabilities must round-trip bit for bit, NaN payloads included.
func FuzzDecodeStreamStatus(f *testing.F) {
	for _, seed := range codecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeStreamStatus(b)
		if err != nil {
			return
		}
		if !oneFrame(b, codecKindStatus) {
			t.Fatalf("accepted a malformed frame %x", b)
		}
		if _, err := DecodeStreamStatus(b[:len(b)-1]); err == nil {
			t.Fatalf("accepted a truncated frame %x", b[:len(b)-1])
		}
		again, err := DecodeStreamStatus(EncodeStreamStatus(got))
		if err != nil {
			t.Fatalf("re-encoded status does not decode: %v", err)
		}
		if again.ID != got.ID || again.Deployment != got.Deployment || again.Time != got.Time ||
			again.Readings != got.Readings || again.Frontier != got.Frontier ||
			again.Dead != got.Dead || len(again.Current) != len(got.Current) {
			t.Fatalf("status round-tripped to %+v, want %+v", again, got)
		}
		for i := range got.Current {
			if again.Current[i].Location != got.Current[i].Location ||
				math.Float64bits(again.Current[i].P) != math.Float64bits(got.Current[i].P) {
				t.Fatalf("entry %d round-tripped to %+v, want %+v", i, again.Current[i], got.Current[i])
			}
		}
	})
}

func TestCodecNegotiation(t *testing.T) {
	req := func(ct, accept string) *http.Request {
		r, err := http.NewRequest(http.MethodPost, "/v1/stream/s1/readings", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	for _, tc := range []struct {
		ct, accept   string
		body, answer bool
	}{
		{"", "", false, false},
		{"application/json", "application/json", false, false},
		{ContentTypeBinary, "", true, false},
		{ContentTypeBinary + "; q=1", ContentTypeBinary, true, true},
		{"", "application/json, " + ContentTypeBinary, false, true},
		{"", "*/*", false, false}, // wildcard keeps JSON
		// RFC 9110 §12.4.2: q=0 means "not acceptable" — an explicit refusal
		// of the binary codec must select JSON, whether alone or buried in a
		// multi-part header.
		{"", ContentTypeBinary + ";q=0", false, false},
		{"", ContentTypeBinary + "; q=0.0", false, false},
		{"", "application/json;q=1, " + ContentTypeBinary + ";q=0", false, false},
		// Any positive q opts in; a malformed q is no opt-in, not a guess.
		{"", ContentTypeBinary + "; q=0.5", false, true},
		{"", "application/json, " + ContentTypeBinary + ";q=0.001", false, true},
		{"", ContentTypeBinary + ";q=oops", false, false},
	} {
		r := req(tc.ct, tc.accept)
		if got := requestIsBinary(r); got != tc.body {
			t.Errorf("requestIsBinary(ct=%q) = %v, want %v", tc.ct, got, tc.body)
		}
		if got := acceptsBinary(r); got != tc.answer {
			t.Errorf("acceptsBinary(accept=%q) = %v, want %v", tc.accept, got, tc.answer)
		}
	}
}

// benchReadings builds a 500-reading batch shaped like real traffic: mostly
// single-reader detections with some multi-reader overlaps and missed reads.
func benchReadings() []rfidclean.Reading {
	rs := make([]rfidclean.Reading, 500)
	for i := range rs {
		switch i % 7 {
		case 0:
			rs[i] = rfidclean.Reading{Time: i, Readers: rfidclean.NewReaderSet()}
		case 3:
			rs[i] = rfidclean.Reading{Time: i, Readers: rfidclean.NewReaderSet(i%5, (i+1)%5)}
		default:
			rs[i] = rfidclean.Reading{Time: i, Readers: rfidclean.NewReaderSet(i % 5)}
		}
	}
	return rs
}

// BenchmarkCodecEncodeReadings measures framing a 500-reading batch into the
// binary wire format (the hot ingestion path under application/x-rfidclean).
func BenchmarkCodecEncodeReadings(b *testing.B) {
	rs := benchReadings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := EncodeStreamReadings(rs); len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkCodecDecodeReadings measures parsing and CRC-checking the same
// batch back out.
func BenchmarkCodecDecodeReadings(b *testing.B) {
	buf := EncodeStreamReadings(benchReadings())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStreamReadings(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinaryBodyOnJSONEndpoints checks that the JSON-only POST endpoints
// refuse an application/x-rfidclean body with 415 and an error that points
// the client at the endpoints that do speak binary — instead of feeding
// frame bytes to the JSON decoder and answering with a baffling parse error.
func TestBinaryBodyOnJSONEndpoints(t *testing.T) {
	base, _, depID, _ := streamHarness(t, Options{})
	frame := EncodeStreamReadings([]rfidclean.Reading{{Time: 0, Readers: rfidclean.NewReaderSet(0)}})
	for _, path := range []string{"/v1/stream", "/v1/clean", "/v1/clean/batch", "/v1/deployments"} {
		resp, err := http.Post(base+path, ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("POST %s with binary body = %d, want 415", path, resp.StatusCode)
			continue
		}
		if err != nil {
			t.Errorf("POST %s: 415 body is not a JSON apiError: %v", path, err)
			continue
		}
		if !strings.Contains(apiErr.Error, "/v1/stream/{id}/readings") {
			t.Errorf("POST %s: 415 error %q does not name the binary-speaking endpoint", path, apiErr.Error)
		}
	}

	// Positive control: the same frame is welcome where binary is spoken.
	sid := openStream(t, base, depID)
	resp, err := http.Post(base+"/v1/stream/"+sid+"/readings", ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary POST readings = %d, want 200", resp.StatusCode)
	}
}
