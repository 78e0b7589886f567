//go:build race

package scanner

// raceEnabled gates exact allocation comparisons: the race runtime
// makes sync.Pool drop a random share of what it is handed, so an
// allocation count that goes through a pool (fmt's printers) varies
// from run to run.
const raceEnabled = true
