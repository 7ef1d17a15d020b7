//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops Puts at
// random and allocation counts stop meaning anything.
const raceEnabled = true
