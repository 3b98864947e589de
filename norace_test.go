//go:build !race

package lf_test

const raceEnabled = false
