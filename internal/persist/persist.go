// Package persist is the stdlib-only durability layer under the query head:
// length-prefixed, checksummed record logs with prefix-tolerant replay, and
// atomic whole-file rewrites (temp file + rename, fsync'd) for snapshots.
//
// The formats favor recoverability over density. A log is a flat sequence of
// frames — 4-byte little-endian payload length, 4-byte CRC32 (IEEE) of the
// payload, then the payload — so a crash mid-append leaves at worst a broken
// tail that ReplayLog detects (short frame, checksum mismatch, or
// undecodable record) and discards, keeping every record before it.
// Snapshots reuse the same frame format but are written in one atomic pass,
// so readers either see the old snapshot or the new one, never a mix.
//
// A payload is one binary record: the version byte 2, then Op, ID and Dep,
// each as a uvarint length followed by its bytes, then Data verbatim to the
// end of the payload. Data is written as given, never parsed or re-encoded,
// so appending a large record costs one CRC pass and one buffered write. Logs written before the binary records carry a JSON
// object per payload instead (version 1, always starting with '{');
// ReplayLog reads both kinds, also mixed within one log.
//
// The package knows nothing about what the records mean; Record carries an
// opcode, an id, and opaque data, and the server layers its put/del/meta
// semantics on top.
package persist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Record is one entry of a log or snapshot.
type Record struct {
	// Op is the record's opcode (the server uses "put", "del" and "meta").
	Op string `json:"op"`
	// ID names the object the record is about.
	ID string `json:"id,omitempty"`
	// Dep optionally names the deployment the object belongs to.
	Dep string `json:"dep,omitempty"`
	// Data is the opaque payload (an encoded ct-graph for puts). Replay
	// delivers it as a fresh slice the callback may keep.
	Data json.RawMessage `json:"data,omitempty"`
}

// recordVersion is the first byte of a binary record payload. A version-1
// payload is a JSON object and so starts with '{'.
const recordVersion = 2

// frameHeaderLen is the bytes preceding each payload: uint32 length then
// uint32 CRC32, both little-endian.
const frameHeaderLen = 8

// maxRecordBytes bounds a single record's payload. A length prefix past it is
// treated as a corrupt frame rather than an allocation request.
const maxRecordBytes = 1 << 30

// Log is an append-only record log. Appends are buffered; Sync flushes the
// buffer and fsyncs, making everything appended before it durable. A Log is
// not safe for concurrent use — the server funnels all appends through one
// writer goroutine — except Size, which any goroutine may call.
type Log struct {
	path string
	f    *os.File
	w    *bufio.Writer
	size atomic.Int64
}

// OpenLog opens (creating if needed) the record log at path for appending.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat log: %w", err)
	}
	l := &Log{path: path, f: f, w: bufio.NewWriter(f)}
	l.size.Store(st.Size())
	return l, nil
}

// Append buffers one record. It is durable only after the next Sync.
func (l *Log) Append(rec Record) error {
	n, err := writeRecord(l.w, rec)
	l.size.Add(int64(n))
	if err != nil {
		return fmt.Errorf("persist: appending record: %w", err)
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the log file.
func (l *Log) Sync() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("persist: flushing log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("persist: fsyncing log: %w", err)
	}
	return nil
}

// Size returns the log's byte size including buffered appends.
func (l *Log) Size() int64 { return l.size.Load() }

// Reset truncates the log to empty — called after its contents have been
// compacted into a snapshot. The file stays open (appends continue at the
// new, empty tail thanks to O_APPEND).
func (l *Log) Reset() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("persist: flushing log before reset: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("persist: truncating log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("persist: fsyncing truncated log: %w", err)
	}
	l.size.Store(0)
	return nil
}

// Close flushes, fsyncs and closes the log.
func (l *Log) Close() error {
	syncErr := l.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// writeRecord writes rec as one framed binary record, returning the bytes
// written (even on error, for size accounting). The frame header and the
// record header go out in one write and rec.Data in a second; the CRC runs
// over both without joining them.
func writeRecord(w io.Writer, rec Record) (int, error) {
	var scratch [64]byte
	b := appendRecordHeader(scratch[:frameHeaderLen], rec)
	hdr := b[frameHeaderLen:]
	length := len(hdr) + len(rec.Data)
	if length > maxRecordBytes {
		return 0, fmt.Errorf("persist: %d-byte record exceeds the record limit", length)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(length))
	binary.LittleEndian.PutUint32(b[4:frameHeaderLen], crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, rec.Data))
	n, err := w.Write(b)
	if err != nil {
		return n, err
	}
	m, err := w.Write(rec.Data)
	return n + m, err
}

// appendRecordHeader appends everything of rec's binary payload but Data:
// the version byte, then Op, ID and Dep as uvarint-length-prefixed strings.
func appendRecordHeader(b []byte, rec Record) []byte {
	b = append(b, recordVersion)
	for _, s := range [...]string{rec.Op, rec.ID, rec.Dep} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// decodeRecord decodes one frame payload of either version. Data aliases
// payload. It fails on anything Append could not have written: an unknown
// version byte, a string running past the payload, an overlong uvarint, or
// a version-1 payload that is not a JSON record.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if len(payload) > 0 && payload[0] == '{' {
		err := json.Unmarshal(payload, &rec)
		return rec, err
	}
	if len(payload) == 0 || payload[0] != recordVersion {
		return rec, errors.New("persist: unknown record version")
	}
	rest := payload[1:]
	for _, dst := range [...]*string{&rec.Op, &rec.ID, &rec.Dep} {
		n, k := binary.Uvarint(rest)
		// A minimal uvarint never ends in a zero byte after the first, so
		// every accepted record re-encodes to the bytes it was read from.
		if k <= 0 || (k > 1 && rest[k-1] == 0) || n > uint64(len(rest)-k) {
			return rec, errors.New("persist: malformed record header")
		}
		*dst = string(rest[k : k+int(n)])
		rest = rest[k+int(n):]
	}
	if len(rest) > 0 {
		rec.Data = rest
	}
	return rec, nil
}

func frameHeader(hdr *[frameHeaderLen]byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

// FrameOverhead is the fixed per-frame byte cost of AppendFrame.
const FrameOverhead = frameHeaderLen

// AppendFrame appends payload to dst as one length+CRC32 frame — the exact
// format Log and WriteLogAtomic use on disk — and returns the extended
// buffer. It lets other layers (e.g. the server's binary wire codec) reuse
// this package's framing for in-memory buffers.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	frameHeader(&hdr, payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ErrBadFrame reports a frame that is truncated, oversized, or fails its
// checksum.
var ErrBadFrame = errors.New("persist: bad frame")

// ParseFrame reads one frame from the front of buf, returning its payload
// (aliasing buf, not copied) and the remaining bytes. It fails with an error
// wrapping ErrBadFrame on a truncated header or payload, an oversized length
// prefix, or a checksum mismatch.
func ParseFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d-byte buffer is shorter than the header", ErrBadFrame, len(buf))
	}
	length := binary.LittleEndian.Uint32(buf[:4])
	sum := binary.LittleEndian.Uint32(buf[4:frameHeaderLen])
	if length > maxRecordBytes {
		return nil, nil, fmt.Errorf("%w: length prefix %d exceeds the record limit", ErrBadFrame, length)
	}
	body := buf[frameHeaderLen:]
	if uint32(len(body)) < length {
		return nil, nil, fmt.Errorf("%w: payload cut short (%d of %d bytes)", ErrBadFrame, len(body), length)
	}
	payload = body[:length]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return payload, body[length:], nil
}

// ReplayLog reads the record log at path, calling fn for each intact record
// in order. A missing file replays zero records. A broken tail — truncated
// frame, a length prefix past the end of the file, checksum mismatch, or
// undecodable payload — stops the replay and reports truncated=true; every
// record before the break has already been delivered. Only an error from fn
// (returned verbatim) or a filesystem error aborts the replay.
func ReplayLog(path string, fn func(Record) error) (n int, truncated bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("persist: opening log for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("persist: stat log for replay: %w", err)
	}
	return replay(bufio.NewReader(f), st.Size(), fn)
}

// replay is ReplayLog over the size bytes of r.
func replay(r io.Reader, size int64, fn func(Record) error) (n int, truncated bool, err error) {
	left := size // bytes not yet read; bounds each payload allocation
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return n, false, nil // clean end
			}
			return n, true, nil // partial header
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		left -= frameHeaderLen
		if length > maxRecordBytes || int64(length) > left {
			return n, true, nil // frame cut short, or a garbage length
		}
		left -= int64(length)
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return n, true, nil // file shrank under the replay
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return n, true, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return n, true, nil
		}
		if err := fn(rec); err != nil {
			return n, false, err
		}
		n++
	}
}

// WriteLogAtomic writes recs as a complete record log at path in one atomic
// step: a temp file in the same directory is written, fsync'd, renamed over
// path, and the directory fsync'd. Readers see either the previous file or
// the new one. It returns the new file's size.
func WriteLogAtomic(path string, recs []Record) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	var size int64
	for _, rec := range recs {
		n, err := writeRecord(w, rec)
		size += int64(n)
		if err != nil {
			return 0, fmt.Errorf("persist: writing snapshot record: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("persist: flushing snapshot: %w", err)
	}
	if err := commitTemp(tmp, path); err != nil {
		tmp = nil // commitTemp closed it
		return 0, err
	}
	tmp = nil
	return size, nil
}

// WriteFileAtomic atomically replaces path with data using the same
// temp-file + rename + directory-fsync protocol as WriteLogAtomic.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: writing temp file: %w", err)
	}
	return commitTemp(tmp, path)
}

// commitTemp fsyncs, chmods, closes and renames a written temp file over
// path, then fsyncs the directory so the rename itself is durable. It always
// closes tmp; on error the temp file is removed.
func commitTemp(tmp *os.File, path string) error {
	name := tmp.Name()
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("persist: %s: %w", step, err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsyncing temp file", err)
	}
	// CreateTemp uses 0600; published files follow the usual umask-style 0644.
	if err := tmp.Chmod(0o644); err != nil {
		return fail("chmod temp file", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("persist: closing temp file: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("persist: renaming temp file: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable. Filesystems
// that refuse directory fsync (some network mounts) degrade gracefully.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening directory for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("persist: fsyncing directory: %w", err)
	}
	return nil
}
