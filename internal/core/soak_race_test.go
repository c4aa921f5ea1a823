//go:build race

package core

// soakSession under the race detector: at the full cap the session's graphs
// hold ~1.2M nodes each and the detector multiplies time and memory ~4x
// (~37 s, ~3.8 GB peak on one core); a quarter of the cap keeps the check
// under ~10 s. The full-length soak runs in the regular (non-race) test job.
const soakSession = 1 << 14

// raceEnabled: under the race detector sync.Pool drops a random share of
// what is put in it, so the kernel pools make allocation counts vary from
// run to run.
const raceEnabled = true
