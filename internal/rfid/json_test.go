package rfid

import (
	"encoding/json"
	"reflect"
	"testing"
)

// sequenceInputs are canonical sequences and near misses of every part of
// the canonical form, each of which encoding/json must decide.
var sequenceInputs = []string{
	`[]`,
	`[{"time":0,"readers":[]}]`,
	`[{"time":0,"readers":[1,4]},{"time":1,"readers":[]},{"time":2,"readers":[4]}]`,
	`[{"time":-3,"readers":[3,1,3,-0]}]`,
	`[{"time":999999999,"readers":[123456789]}]`,
	`[{"time":1000000000,"readers":[]}]`,
	`[{"time":99999999999999999999,"readers":[]}]`,
	`[{"time":01,"readers":[]}]`,
	`[{"time":1.5,"readers":[]}]`,
	`[{"time":1e2,"readers":[]}]`,
	`[{"time":-,"readers":[]}]`,
	`[{"time":1,"readers":[2,]}]`,
	`[{"time":1,"readers":[,]}]`,
	`[{"time":1,"readers":null}]`,
	`[{"time":1,"readers":["2"]}]`,
	`[{"time":1}]`,
	`[{"readers":[2],"time":1}]`,
	`[{"time":1,"readers":[2],"time":3}]`,
	`[{"TIME":1,"readers":[2]}]`,
	`[{"time":1,"readers":[2]},]`,
	`[{"time":1,"readers":[2]}] `,
	` [{"time":1,"readers":[2]}]`,
	`[{"time": 1, "readers": [2]}]`,
	`[{"time":1,"readers":[2]}]x`,
	`[{"time":1,"readers":[2]}`,
	`[{"time":1,"readers":[2]}][]`,
	`null`,
	`{}`,
	``,
	`[`,
}

func TestSequenceUnmarshalMatchesEncodingJSON(t *testing.T) {
	for _, in := range sequenceInputs {
		checkSequenceJSON(t, []byte(in))
	}
	seq := Sequence{{Time: 0, Readers: NewSet(2, 7)}, {Time: 1}, {Time: 2, Readers: NewSet(7)}}
	data, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseSequence(data); !ok {
		t.Fatalf("json.Marshal's %s is not parsed directly", data)
	}
	var back Sequence
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, seq) {
		t.Fatalf("round trip of %s = %v (err %v)", data, back, err)
	}
}

// FuzzSequenceJSON: on arbitrary bytes, Sequence.UnmarshalJSON (called
// directly and through encoding/json) and encoding/json's own decoding of
// a method-less []Reading accept the same inputs and give the same values.
func FuzzSequenceJSON(f *testing.F) {
	for _, in := range sequenceInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkSequenceJSON)
}

func checkSequenceJSON(t *testing.T, data []byte) {
	var want []Reading
	wantErr := json.Unmarshal(data, &want)
	var direct, nested Sequence
	for name, err := range map[string]error{
		"UnmarshalJSON":  direct.UnmarshalJSON(data),
		"json.Unmarshal": json.Unmarshal(data, &nested),
	} {
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s of %q: error %v, encoding/json's %v", name, data, err, wantErr)
		}
	}
	if wantErr != nil {
		return
	}
	for name, got := range map[string]Sequence{"UnmarshalJSON": direct, "json.Unmarshal": nested} {
		if !reflect.DeepEqual([]Reading(got), want) {
			t.Fatalf("%s of %q = %#v, encoding/json's %#v", name, data, got, want)
		}
	}
}
