//go:build race

package lf_test

// raceEnabled reports a -race build, under which TestPaperTables'
// experiments run too slowly to keep in the race suite.
const raceEnabled = true
