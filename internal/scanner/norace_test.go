//go:build !race

package scanner

const raceEnabled = false
