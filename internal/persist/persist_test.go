package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// collect replays path into a slice, failing the test on a replay error.
func collect(t testing.TB, path string) ([]Record, int, bool) {
	t.Helper()
	var recs []Record
	n, truncated, err := ReplayLog(path, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayLog: %v", err)
	}
	return recs, n, truncated
}

// appendRecords opens the log at path and appends+syncs the given records.
func appendRecords(t testing.TB, path string, recs ...Record) {
	t.Helper()
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func rec(op, id string, payload string) Record {
	r := Record{Op: op, ID: id}
	if payload != "" {
		r.Data = json.RawMessage(payload)
	}
	return r
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	want := []Record{
		rec("put", "t1", `{"nodes":3}`),
		rec("del", "t1", ""),
		rec("meta", "", `{"next":7}`),
	}
	appendRecords(t, path, want...)

	got, n, truncated := collect(t, path)
	if truncated {
		t.Fatal("clean log reported truncated")
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].ID != want[i].ID || string(got[i].Data) != string(want[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLogAppendAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path, rec("put", "t1", `{"a":1}`))
	appendRecords(t, path, rec("put", "t2", `{"a":2}`))
	got, _, truncated := collect(t, path)
	if truncated || len(got) != 2 || got[1].ID != "t2" {
		t.Fatalf("got %d records (truncated=%v), want the t1,t2 pair", len(got), truncated)
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, truncated, err := ReplayLog(filepath.Join(t.TempDir(), "absent.wal"), func(Record) error {
		t.Fatal("fn called for a missing file")
		return nil
	})
	if err != nil || n != 0 || truncated {
		t.Fatalf("missing file: n=%d truncated=%v err=%v, want 0,false,nil", n, truncated, err)
	}
}

func TestReplayTruncatedTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path,
		rec("put", "t1", `{"a":1}`),
		rec("put", "t2", `{"a":2}`),
		rec("put", "t3", `{"a":3}`),
	)
	// Chop off the last 5 bytes, cutting the final record's payload short.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, n, truncated := collect(t, path)
	if !truncated {
		t.Fatal("truncated tail not reported")
	}
	if n != 2 || len(got) != 2 || got[0].ID != "t1" || got[1].ID != "t2" {
		t.Fatalf("prefix = %d records (%v), want t1,t2", n, got)
	}
}

func TestReplayCorruptPayloadKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path, rec("put", "t1", `{"a":1}`))
	end1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, path, rec("put", "t2", `{"a":2}`))
	// Flip a byte inside the second record's payload: the CRC no longer
	// matches, so replay must stop after t1.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[end1.Size()+frameHeaderLen+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, n, truncated := collect(t, path)
	if !truncated || n != 1 || len(got) != 1 || got[0].ID != "t1" {
		t.Fatalf("corrupt payload: n=%d truncated=%v got=%v, want just t1", n, truncated, got)
	}
}

func TestReplayAbsurdLengthIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path, rec("put", "t1", `{"a":1}`))
	// Append a frame header claiming a multi-gigabyte payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, n, truncated := collect(t, path)
	if !truncated || n != 1 {
		t.Fatalf("absurd length: n=%d truncated=%v, want prefix of 1", n, truncated)
	}
}

func TestReplayPropagatesFnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path, rec("put", "t1", ""), rec("put", "t2", ""))
	boom := errors.New("boom")
	n, _, err := ReplayLog(path, func(r Record) error {
		if r.ID == "t2" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("fn error: n=%d err=%v, want 1 and boom", n, err)
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(rec("put", "t1", "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after reset = %d, want 0", l.Size())
	}
	if err := l.Append(rec("put", "t2", "")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _, truncated := collect(t, path)
	if truncated || len(got) != 1 || got[0].ID != "t2" {
		t.Fatalf("after reset got %v (truncated=%v), want just t2", got, truncated)
	}
}

func TestWriteLogAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if _, err := WriteLogAtomic(path, []Record{rec("put", "old", "")}); err != nil {
		t.Fatal(err)
	}
	size, err := WriteLogAtomic(path, []Record{rec("put", "new1", ""), rec("put", "new2", "")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size {
		t.Fatalf("reported size %d, stat says %d", size, st.Size())
	}
	got, _, truncated := collect(t, path)
	if truncated || len(got) != 2 || got[0].ID != "new1" {
		t.Fatalf("replaced snapshot = %v (truncated=%v), want new1,new2", got, truncated)
	}
	// No temp files may survive the rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := WriteFileAtomic(path, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"v":2}` {
		t.Fatalf("content = %s, want v:2", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the published file", len(entries))
	}
}

func BenchmarkLogAppendSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := OpenLog(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := json.RawMessage(`{"nodes":[` + strings.Repeat(`{"time":0,"loc":1},`, 63) + `{"time":0,"loc":1}]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Record{Op: "put", ID: "t" + strconv.Itoa(i), Data: payload}); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 { // group commit every 64 records
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), []byte(`{"op":"put"}`), make([]byte, 4096)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		payload, tail, err := ParseFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
		rest = tail
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(rest))
	}
}

func TestFrameMatchesLogFormat(t *testing.T) {
	// AppendFrame must produce the exact on-disk bytes writeRecord does, so
	// the wire codec and the durability layer stay one format.
	rec := Record{Op: "put", ID: "t1", Data: []byte(`{"k":1}`)}
	payload := append(appendRecordHeader(nil, rec), rec.Data...)
	var fileBuf bytes.Buffer
	if _, err := writeRecord(&fileBuf, rec); err != nil {
		t.Fatal(err)
	}
	if got := AppendFrame(nil, payload); !bytes.Equal(got, fileBuf.Bytes()) {
		t.Fatal("AppendFrame bytes differ from writeRecord bytes")
	}
}

func TestParseFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	cases := map[string][]byte{
		"short header":      good[:FrameOverhead-1],
		"truncated payload": good[:len(good)-1],
	}
	flipped := append([]byte(nil), good...)
	flipped[FrameOverhead] ^= 0x01
	cases["checksum mismatch"] = flipped
	absurd := append([]byte(nil), good...)
	absurd[3] = 0xff // length prefix far beyond the record limit
	cases["oversized length"] = absurd
	for name, buf := range cases {
		if _, _, err := ParseFrame(buf); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestLogSizeWhileAppending reads Size from one goroutine while another
// appends, as the server's deployment snapshots do beside its WAL writer.
// Run it under -race.
func TestLogSizeWhileAppending(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "test.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const records = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < records; i++ {
			if err := l.Append(rec("put", "t"+strconv.Itoa(i), `{"a":1}`)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var last int64
	for waiting := true; waiting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			waiting = false
		default:
		}
		size := l.Size()
		if size < last {
			t.Fatalf("size went backwards: %d after %d", size, last)
		}
		last = size
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(l.path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != st.Size() {
		t.Fatalf("Size() = %d, file holds %d bytes", l.Size(), st.Size())
	}
}

// TestReplayLengthPastEOFIsTornTail: a garbage length prefix below the
// record limit but past the end of the file must end the replay as a torn
// tail without allocating the claimed length first.
func TestReplayLengthPastEOFIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	appendRecords(t, path, rec("put", "t1", `{"a":1}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const claimed = 256 << 20 // well under maxRecordBytes
	var hdr [frameHeaderLen]byte
	hdr[3] = claimed >> 24
	if _, err := f.Write(append(hdr[:], "short body"...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, truncated := collect(t, path)
	runtime.ReadMemStats(&after)
	if !truncated || n != 1 {
		t.Fatalf("length past EOF: n=%d truncated=%v, want prefix of 1", n, truncated)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/16 {
		t.Fatalf("replay allocated %d bytes for a frame claiming %d", grew, claimed)
	}
}

// v1Log is a log as written before binary records: each payload is the
// record's encoding/json object.
var v1Log = []string{
	`{"op":"meta","data":{"next":7}}`,
	`{"op":"put","id":"t1","dep":"d1","data":{"version":1,"duration":1}}`,
	`{"op":"del","id":"t1"}`,
	`{"op":"put","id":"t2","dep":"d2","data":[1,2]}`,
}

var v1Records = []Record{
	rec("meta", "", `{"next":7}`),
	{Op: "put", ID: "t1", Dep: "d1", Data: []byte(`{"version":1,"duration":1}`)},
	rec("del", "t1", ""),
	{Op: "put", ID: "t2", Dep: "d2", Data: []byte(`[1,2]`)},
}

func appendV1Frames(dst []byte, payloads ...string) []byte {
	for _, p := range payloads {
		dst = AppendFrame(dst, []byte(p))
	}
	return dst
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].ID != want[i].ID || got[i].Dep != want[i].Dep || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReplayVersion1Log(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, appendV1Frames(nil, v1Log...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, truncated := collect(t, path)
	if truncated {
		t.Fatal("version-1 log reported truncated")
	}
	sameRecords(t, got, v1Records)
}

func TestReplayMixedVersionLog(t *testing.T) {
	dir := t.TempDir()
	mixed := filepath.Join(dir, "mixed.wal")
	if err := os.WriteFile(mixed, appendV1Frames(nil, v1Log[:2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, mixed, v1Records[2])
	f, err := os.OpenFile(mixed, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendV1Frames(nil, v1Log[3])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, truncated := collect(t, mixed)
	if truncated {
		t.Fatal("mixed log reported truncated")
	}
	sameRecords(t, got, v1Records)

	// Rewriting it as a snapshot keeps every record.
	snap := filepath.Join(dir, "snap")
	if _, err := WriteLogAtomic(snap, got); err != nil {
		t.Fatal(err)
	}
	again, _, truncated := collect(t, snap)
	if truncated {
		t.Fatal("rewritten log reported truncated")
	}
	sameRecords(t, again, v1Records)
}

// FuzzReplayLog feeds arbitrary bytes to ReplayLog, both as a whole log and
// as the payload of one well-formed frame (which gets past the checksum to
// the record decoder). The seeds are log files written by Append and
// WriteLogAtomic, a version-1 log and a mixed one. Replay must never panic; every record it delivers
// before a break must re-append to the very frame it came from when that
// frame is a binary record, and round-trip through a rewrite either way.
func FuzzReplayLog(f *testing.F) {
	dir := f.TempDir()
	wal := filepath.Join(dir, "seed.wal")
	appendRecords(f, wal, v1Records...)
	appendRecords(f, wal, rec("put", "t9", `{"nodes":3}`), Record{Op: "put", ID: "t10", Dep: "d1"})
	snap := filepath.Join(dir, "seed.snap")
	if _, err := WriteLogAtomic(snap, v1Records); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{wal, snap} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(appendV1Frames(nil, v1Log...))
	f.Add(append(appendV1Frames(nil, v1Log[:2]...), AppendFrame(nil, append(appendRecordHeader(nil, v1Records[2]), v1Records[2].Data...))...))
	f.Add(append(appendRecordHeader(nil, v1Records[1]), v1Records[1].Data...))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, AppendFrame(nil, data))
	})
}

// checkReplay replays data as a log and checks what it delivers against the
// frames it was read from.
func checkReplay(t *testing.T, data []byte) {
	got, n, truncated := replayBytes(t, data)
	if n != len(got) {
		t.Fatalf("replay counted %d records, delivered %d", n, len(got))
	}
	rest := data
	var rewritten bytes.Buffer
	for i, r := range got {
		payload, tail, err := ParseFrame(rest)
		if err != nil {
			t.Fatalf("record %d was delivered from a bad frame: %v", i, err)
		}
		start := rewritten.Len()
		if _, err := writeRecord(&rewritten, r); err != nil {
			t.Fatalf("re-appending record %d: %v", i, err)
		}
		if payload[0] == recordVersion && !bytes.Equal(rewritten.Bytes()[start:], rest[:len(rest)-len(tail)]) {
			t.Fatalf("record %d re-appends to different bytes", i)
		}
		rest = tail
	}
	if !truncated && len(rest) != 0 {
		t.Fatalf("clean replay left %d bytes unread", len(rest))
	}
	back, _, truncated := replayBytes(t, rewritten.Bytes())
	if truncated {
		t.Fatal("rewritten log reported truncated")
	}
	sameRecords(t, back, got)
}

// replayBytes runs ReplayLog's frame loop over an in-memory log.
func replayBytes(t *testing.T, data []byte) ([]Record, int, bool) {
	var recs []Record
	n, truncated, err := replay(bytes.NewReader(data), int64(len(data)), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, n, truncated
}
