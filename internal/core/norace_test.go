//go:build !race

package core

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random.
const raceEnabled = false
