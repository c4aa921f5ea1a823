package rfidclean_test

import (
	"runtime"
	"testing"
)

// TestSystemRetainedHeap: one SYN1 Deployment.System() — cell space, truth
// matrix, calibrated matrix and prior — retains at most 1 MB of heap once
// built, measured after a collection: every registered deployment holds
// one, so its matrices must keep only the spans a reader can reach.
func TestSystemRetainedHeap(t *testing.T) {
	_, dep := syn1Deployment(t)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second collection empties the pools
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	sys, err := dep.System()
	if err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	stored, cells := 0, sys.Cells.NumCells()*len(sys.Readers)
	for r := range sys.Readers {
		_, row := sys.Truth.Row(r)
		stored += len(row)
	}
	t.Logf("SYN1 System retains %d B; the truth matrix stores %d of %d entries in %d B", retained, stored, cells, sys.Truth.Bytes())
	if retained > 1<<20 {
		t.Errorf("SYN1 System retains %d B of heap, want at most %d", retained, 1<<20)
	}
	runtime.KeepAlive(sys)
	runtime.KeepAlive(dep)
}
