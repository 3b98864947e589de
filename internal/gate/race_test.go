//go:build race

package gate

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and allocation counts mean nothing.
const raceEnabled = true
