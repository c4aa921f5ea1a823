package server

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	rfidclean "repro"
)

func TestConstraintCacheHitMiss(t *testing.T) {
	var calls atomic.Int64
	infer := func() (*rfidclean.ConstraintSet, error) {
		calls.Add(1)
		return rfidclean.NewConstraintSet(), nil
	}
	c := newConstraintCache(2)
	p1 := rfidclean.ConstraintParams{MaxSpeed: 2, MinStay: 5}
	p2 := rfidclean.ConstraintParams{MaxSpeed: 2, MinStay: 10}
	p3 := rfidclean.ConstraintParams{MaxSpeed: 3, MinStay: 5, TTCap: 7}

	ic1, err, hit := c.get(p1, infer)
	if err != nil || hit || ic1 == nil {
		t.Fatalf("first get: ic=%v err=%v hit=%v", ic1, err, hit)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d after first get", calls.Load())
	}
	ic1b, err, hit := c.get(p1, infer)
	if err != nil || !hit || ic1b != ic1 {
		t.Fatalf("second get: same-pointer hit expected (hit=%v)", hit)
	}
	if calls.Load() != 1 {
		t.Fatalf("cache hit ran inference (calls = %d)", calls.Load())
	}

	// Fill past capacity: p1 (LRU after p2/p3 insertions) is evicted.
	if _, _, hit := c.get(p2, infer); hit {
		t.Fatal("p2 unexpectedly hit")
	}
	if _, _, hit := c.get(p3, infer); hit {
		t.Fatal("p3 unexpectedly hit")
	}
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if _, _, hit := c.get(p3, infer); !hit {
		t.Fatal("p3 should still be cached")
	}
	if _, _, hit := c.get(p1, infer); hit {
		t.Fatal("p1 should have been LRU-evicted")
	}
	if calls.Load() != 4 {
		t.Fatalf("calls = %d, want 4 (p1, p2, p3, p1 again)", calls.Load())
	}
}

func TestConstraintCacheRecencyOrder(t *testing.T) {
	infer := func() (*rfidclean.ConstraintSet, error) { return rfidclean.NewConstraintSet(), nil }
	c := newConstraintCache(2)
	p1 := rfidclean.ConstraintParams{MaxSpeed: 1}
	p2 := rfidclean.ConstraintParams{MaxSpeed: 2}
	p3 := rfidclean.ConstraintParams{MaxSpeed: 3}
	c.get(p1, infer)
	c.get(p2, infer)
	c.get(p1, infer) // touch p1 so p2 becomes LRU
	c.get(p3, infer) // evicts p2
	if _, _, hit := c.get(p1, infer); !hit {
		t.Error("recently used p1 was evicted")
	}
	if _, _, hit := c.get(p2, infer); hit {
		t.Error("LRU p2 survived eviction")
	}
}

func TestConstraintCacheSingleInference(t *testing.T) {
	var calls atomic.Int64
	c := newConstraintCache(constraintCacheEntries)
	p := rfidclean.ConstraintParams{MaxSpeed: 2, MinStay: 5}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ic, err, _ := c.get(p, func() (*rfidclean.ConstraintSet, error) {
				calls.Add(1)
				return rfidclean.NewConstraintSet(), nil
			})
			if err != nil || ic == nil {
				t.Errorf("concurrent get: ic=%v err=%v", ic, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("concurrent misses ran inference %d times, want 1", calls.Load())
	}
}

func TestConstraintCacheCachesErrors(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	infer := func() (*rfidclean.ConstraintSet, error) {
		calls.Add(1)
		return nil, boom
	}
	c := newConstraintCache(constraintCacheEntries)
	p := rfidclean.ConstraintParams{MaxSpeed: -1}
	if _, err, _ := c.get(p, infer); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err, hit := c.get(p, infer); !errors.Is(err, boom) || !hit {
		t.Fatalf("second err = %v hit = %v; deterministic error should be cached", err, hit)
	}
	if calls.Load() != 1 {
		t.Fatalf("error recomputed (%d calls)", calls.Load())
	}
}

// TestConstraintCacheRecoversPanic: sync.Once marks itself done even when
// its function panics, so before the recover() guard a panicking inference
// permanently poisoned the entry — every later hit read the zero values (nil
// set, nil error) and crashed the handler far from the cause. Now the panic
// is converted into a cached error, for the first caller and all later hits.
func TestConstraintCacheRecoversPanic(t *testing.T) {
	var calls atomic.Int64
	infer := func() (*rfidclean.ConstraintSet, error) {
		calls.Add(1)
		panic("inference exploded")
	}
	c := newConstraintCache(constraintCacheEntries)
	p := rfidclean.ConstraintParams{MaxSpeed: 1}
	ic, err, _ := c.get(p, infer)
	if ic != nil || err == nil || !strings.Contains(err.Error(), "inference exploded") {
		t.Fatalf("first get = (%v, %v), want nil set and the panic as an error", ic, err)
	}
	ic, err, hit := c.get(p, infer)
	if ic != nil || err == nil || !hit {
		t.Fatalf("second get = (%v, %v, hit=%v); the panic-error should be cached", ic, err, hit)
	}
	if calls.Load() != 1 {
		t.Fatalf("panicking inference ran %d times, want 1", calls.Load())
	}
}
