package rfidclean

import (
	"context"
	"runtime"
	"sync"
)

// BatchOptions configures CleanAll.
type BatchOptions struct {
	// Build configures ct-graph construction for every sequence (nil uses
	// the defaults, i.e. StrictEnd semantics).
	Build *BuildOptions
	// Workers caps the number of sequences cleaned concurrently. Zero or
	// negative uses GOMAXPROCS.
	Workers int
	// Context optionally bounds the batch: once it is done, slots that have
	// not started cleaning fail with the context's error instead of running.
	// Sequences already being cleaned run to completion. Nil means no
	// cancellation.
	Context context.Context
}

func (o *BatchOptions) workers() int {
	if o != nil && o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *BatchOptions) build() *BuildOptions {
	if o == nil {
		return nil
	}
	return o.Build
}

func (o *BatchOptions) context() context.Context {
	if o != nil && o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// CleanAll cleans many objects' reading sequences concurrently over a
// bounded worker pool. Per-object cleaning is embarrassingly parallel — the
// prior and the constraint set are shared read-mostly state safe for
// concurrent use — so a warehouse-scale batch (the deployment shape of
// distributed RFID inference pipelines) splits cleanly across cores.
//
// The results are positional: cleaned[i] and errs[i] correspond to
// readings[i], and exactly one of them is non-nil. A sequence the
// constraints rule out entirely yields ErrNoValidTrajectory in its slot;
// one bad sequence never aborts the rest of the batch.
func (s *System) CleanAll(readings []ReadingSequence, ic *ConstraintSet, opts *BatchOptions) (cleaned []*Cleaned, errs []error) {
	cleaned = make([]*Cleaned, len(readings))
	errs = make([]error, len(readings))
	if len(readings) == 0 {
		return cleaned, errs
	}
	if s.Prior == nil {
		for i := range errs {
			errs[i] = errNoPrior
		}
		return cleaned, errs
	}
	workers := opts.workers()
	if workers > len(readings) {
		workers = len(readings)
	}
	build := opts.build()
	ctx := opts.context()
	done := ctx.Done()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				b := build
				if b != nil && b.Explain != nil {
					// Explain reports are written without synchronization, so
					// concurrent slots must not share one; give each job its
					// own copy of the options with a fresh report.
					bb := *b
					bb.Explain = &BuildExplain{}
					b = &bb
				}
				cleaned[i], errs[i] = s.CleanCtx(ctx, readings[i], ic, b)
			}
		}()
	}
dispatch:
	for i := range readings {
		select {
		case jobs <- i:
		case <-done:
			// Slots from i on were never handed to a worker; fail them here.
			for j := i; j < len(readings); j++ {
				errs[j] = ctx.Err()
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return cleaned, errs
}
