package rfid

import (
	"bytes"
	"encoding/json"
	"sort"
)

// MarshalJSON encodes the set as a JSON array of reader IDs.
func (s Set) MarshalJSON() ([]byte, error) {
	if s.ids == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.ids)
}

// UnmarshalJSON decodes a JSON array of reader IDs, canonicalizing it.
func (s *Set) UnmarshalJSON(data []byte) error {
	var ids []int
	if err := json.Unmarshal(data, &ids); err != nil {
		return err
	}
	*s = NewSet(ids...)
	return nil
}

// UnmarshalJSON decodes a JSON array of readings. The form json.Marshal
// writes (no whitespace, "time" before "readers", integer literals) is
// parsed directly in one pass, every reader set of the sequence sharing one
// backing array. Any other input is handed whole to encoding/json, so every
// value accepted, and whether an input is rejected, is encoding/json's.
func (q *Sequence) UnmarshalJSON(data []byte) error {
	if seq, ok := parseSequence(data); ok {
		*q = seq
		return nil
	}
	type plain Sequence // no UnmarshalJSON: encoding/json decodes it field by field
	return json.Unmarshal(data, (*plain)(q))
}

// minReadingLen is the length of the shortest reading in the canonical
// form, `{"time":0,"readers":[]}`, plus its separating comma.
const minReadingLen = len(`{"time":0,"readers":[]},`)

// parseSequence parses data if it is a sequence in the canonical form, and
// reports false, having touched nothing, on the first byte that is not.
func parseSequence(data []byte) (Sequence, bool) {
	p := scanner{data: data}
	if !p.lit("[") {
		return nil, false
	}
	seq := make(Sequence, 0, len(data)/minReadingLen+1)
	if p.lit("]") {
		return seq, p.end()
	}
	ids := make([]int, 0, cap(seq))
	for {
		if !p.lit(`{"time":`) {
			return nil, false
		}
		t, ok := p.int()
		if !ok || !p.lit(`,"readers":[`) {
			return nil, false
		}
		start := len(ids)
		if !p.lit("]") {
			for {
				id, ok := p.int()
				if !ok {
					return nil, false
				}
				ids = append(ids, id)
				if p.lit("]") {
					break
				}
				if !p.lit(",") {
					return nil, false
				}
			}
		}
		var set Set
		ids, set = canonicalTail(ids, start)
		seq = append(seq, Reading{Time: t, Readers: set})
		if !p.lit("}") {
			return nil, false
		}
		if p.lit("]") {
			return seq, p.end()
		}
		if !p.lit(",") {
			return nil, false
		}
	}
}

// canonicalTail makes ids[start:] the set NewSet(ids[start:]...) would
// hold, sorted and deduplicated in place, and returns the shortened ids
// and the set, capped so that later appends to ids never reach it.
func canonicalTail(ids []int, start int) ([]int, Set) {
	tail := ids[start:]
	if len(tail) == 0 {
		return ids, Set{}
	}
	if !sort.IntsAreSorted(tail) {
		sort.Ints(tail)
	}
	k := 1
	for _, id := range tail[1:] {
		if id != tail[k-1] {
			tail[k] = id
			k++
		}
	}
	end := start + k
	return ids[:end], Set{ids: ids[start:end:end]}
}

// scanner walks canonical JSON text.
type scanner struct {
	data []byte
	off  int
}

// lit consumes s if the input continues with it.
func (p *scanner) lit(s string) bool {
	if !bytes.HasPrefix(p.data[p.off:], []byte(s)) {
		return false
	}
	p.off += len(s)
	return true
}

// int consumes an integer literal of at most nine digits, which fits an
// int on every platform: an optional minus, then 0 or a digit string
// without a leading zero. Anything longer is left to encoding/json.
func (p *scanner) int() (int, bool) {
	i, neg := p.off, false
	if i < len(p.data) && p.data[i] == '-' {
		neg = true
		i++
	}
	digits := i
	v := 0
	for i < len(p.data) && i-digits < 10 && '0' <= p.data[i] && p.data[i] <= '9' {
		v = 10*v + int(p.data[i]-'0')
		i++
	}
	if n := i - digits; n == 0 || n > 9 || (n > 1 && p.data[digits] == '0') {
		return 0, false
	}
	p.off = i
	if neg {
		v = -v
	}
	return v, true
}

// end reports whether the whole input has been consumed.
func (p *scanner) end() bool { return p.off == len(p.data) }
