//go:build !race

package core

// soakSession is TestBuildStateSoakSession's length: the query head's
// per-session reading cap (maxSessionReadings).
const soakSession = 1 << 16

const raceEnabled = false
