//go:build race

package httpapi

// raceEnabled reports that the race detector is compiled in; it moves
// allocation counts, so the allocation budget skips itself.
const raceEnabled = true
