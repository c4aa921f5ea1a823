package rfidclean_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	rfidclean "repro"
)

// batchReadings synthesizes n independent objects' reading sequences over
// the demo deployment.
func batchReadings(t testing.TB, sys *rfidclean.System, n, duration int, seed uint64) []rfidclean.ReadingSequence {
	t.Helper()
	rng := rfidclean.NewRNG(seed)
	cfg := rfidclean.NewGeneratorConfig(duration)
	out := make([]rfidclean.ReadingSequence, n)
	for i := range out {
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rfidclean.GenerateReadings(truth, sys.Truth, rng)
	}
	return out
}

// TestCleanAllMatchesSequential: CleanAll over a worker pool returns, slot by
// slot, the same cleaned distributions as cleaning each sequence alone.
func TestCleanAllMatchesSequential(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 12, 60, 1)
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd}
	cleaned, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Build: opts, Workers: 4})
	if len(cleaned) != len(readings) || len(errs) != len(readings) {
		t.Fatalf("positional result lengths %d/%d, want %d", len(cleaned), len(errs), len(readings))
	}
	for i, r := range readings {
		want, wantErr := sys.Clean(r, ic, opts)
		if (wantErr == nil) != (errs[i] == nil) {
			t.Fatalf("slot %d: sequential err %v, batch err %v", i, wantErr, errs[i])
		}
		if wantErr != nil {
			continue
		}
		if cleaned[i] == nil {
			t.Fatalf("slot %d: nil result without error", i)
		}
		wm, err := want.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		gm, err := cleaned[i].Marginals()
		if err != nil {
			t.Fatal(err)
		}
		for tau := range wm {
			for loc := range wm[tau] {
				if math.Abs(wm[tau][loc]-gm[tau][loc]) > 1e-12 {
					t.Fatalf("slot %d: marginal[%d][%d] = %v, sequential %v",
						i, tau, loc, gm[tau][loc], wm[tau][loc])
				}
			}
		}
	}
}

// TestCleanAllQuotient: with BuildOptions.Quotient set, every slot holds
// the quotient of the sequence's clean, byte for byte, and keeps its
// explain report.
func TestCleanAllQuotient(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 6, 60, 2)
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &rfidclean.BuildExplain{}}
	quotient := *opts
	quotient.Quotient = true
	cleaned, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Build: &quotient, Workers: 3})
	encode := func(c *rfidclean.Cleaned) string {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i, r := range readings {
		want, err := sys.Clean(r, ic, opts)
		if err != nil || errs[i] != nil {
			t.Fatalf("slot %d: sequential err %v, batch err %v", i, err, errs[i])
		}
		if encode(cleaned[i]) != encode(want.Quotient()) {
			t.Fatalf("slot %d: batch result is not the quotient of the sequence's clean", i)
		}
		if cleaned[i].Explain() == nil {
			t.Fatalf("slot %d: explain report dropped", i)
		}
	}
}

// TestCleanAllSharesOneConstraintSet: concurrent slots compile one shared
// set (run it under -race), and a change to the set after a batch is seen
// by the next batch. Each round is checked against sequential cleans over a
// fresh copy of the set, which has compiled nothing yet.
func TestCleanAllSharesOneConstraintSet(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 16, 40, 3)
	opts := &rfidclean.BuildOptions{Quotient: true}
	encode := func(c *rfidclean.Cleaned, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for round := 0; round < 2; round++ {
		if round == 1 {
			// Every stay must now last 4 timestamps: the graphs change.
			for l := 0; l < sys.Plan.NumLocations(); l++ {
				ic.AddLT(l, 4)
			}
		}
		cleaned, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Build: opts, Workers: 8})
		fresh := ic.Clone()
		for i, r := range readings {
			if got, want := encode(cleaned[i], errs[i]), encode(sys.Clean(r, fresh, opts)); got != want {
				t.Fatalf("round %d slot %d: batch over the shared set differs from a clean over a fresh copy", round, i)
			}
		}
	}
}

// TestCleanAllIsolatesFailures: one inconsistent sequence fails its own slot
// only, and the default worker count handles an empty batch.
func TestCleanAllIsolatesFailures(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 3, 40, 2)
	// A sequence of the wrong shape (no readings) fails interpretation.
	readings[1] = rfidclean.ReadingSequence{}
	cleaned, errs := sys.CleanAll(readings, ic, nil)
	if errs[1] == nil {
		t.Errorf("empty sequence did not fail its slot")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy slots failed: %v %v", errs[0], errs[2])
	}
	if cleaned[0] == nil || cleaned[1] != nil || cleaned[2] == nil {
		t.Errorf("cleaned slots inconsistent with errors")
	}

	cleaned, errs = sys.CleanAll(nil, ic, nil)
	if len(cleaned) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %d/%d slots", len(cleaned), len(errs))
	}

	// Without a prior every slot reports the same configuration error.
	bare := &rfidclean.System{Plan: sys.Plan, Readers: sys.Readers, Cells: sys.Cells, Truth: sys.Truth}
	_, errs = bare.CleanAll(batchReadings(t, sys, 2, 10, 3), ic, nil)
	for i, err := range errs {
		if err == nil {
			t.Errorf("slot %d cleaned without a prior", i)
		}
	}
}

// TestCleanAllNoValidTrajectory: a batch whose constraints rule everything
// out yields ErrNoValidTrajectory per slot, not a panic or a global abort.
func TestCleanAllNoValidTrajectory(t *testing.T) {
	sys := demoSystem(t)
	// Forbid every move and every stay by latency that can never complete:
	// make all locations mutually unreachable and require a minimum stay
	// longer than the window under strict end semantics.
	ic, err := sys.InferConstraints(2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 4, 20, 4)
	_, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{
		Build:   &rfidclean.BuildOptions{EndLatency: rfidclean.StrictEnd},
		Workers: 2,
	})
	for i, err := range errs {
		if err != nil && !errors.Is(err, rfidclean.ErrNoValidTrajectory) {
			t.Errorf("slot %d: unexpected error %v", i, err)
		}
	}
}

// BenchmarkCleanAll compares sequential cleaning against the worker pool on
// a 100-object batch (the acceptance scenario).
func BenchmarkCleanAll(b *testing.B) {
	sys := demoSystem(b)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		b.Fatal(err)
	}
	readings := batchReadings(b, sys, 100, 60, 7)
	opts := &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd}
	for _, workers := range []int{1, 8} {
		name := "workers1"
		if workers == 8 {
			name = "workers8"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Build: opts, Workers: workers})
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCleanAllCancelled: a done context fails every slot with the context's
// error instead of cleaning; a live context cleans normally.
func TestCleanAllCancelled(t *testing.T) {
	sys := demoSystem(t)
	ic, err := sys.InferConstraints(2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	readings := batchReadings(t, sys, 6, 30, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cleaned, errs := sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Workers: 2, Context: ctx})
	for i := range readings {
		if cleaned[i] != nil || !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("slot %d: cleaned=%v err=%v, want context.Canceled", i, cleaned[i], errs[i])
		}
	}

	cleaned, errs = sys.CleanAll(readings, ic, &rfidclean.BatchOptions{Workers: 2, Context: context.Background()})
	for i := range readings {
		if errs[i] != nil || cleaned[i] == nil {
			t.Fatalf("live-context slot %d: err=%v", i, errs[i])
		}
	}
}
