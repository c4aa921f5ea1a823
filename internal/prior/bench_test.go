package prior_test

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkLSequence measures reading interpretation through p*(l|R) on one
// 20-s SYN1 sequence with a warm cache: the per-timestamp cost the server
// pays on every clean.
func BenchmarkLSequence(b *testing.B) {
	d, err := dataset.Build("SYN1", dataset.SYN1())
	if err != nil {
		b.Fatal(err)
	}
	insts, err := d.Generate(20, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	seq := insts[0].Readings
	if _, err := d.Prior.LSequence(seq); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Prior.LSequence(seq); err != nil {
			b.Fatal(err)
		}
	}
}
