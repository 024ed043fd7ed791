//go:build race

package experiments

// raceEnabled reports whether the race detector is active; it slows
// every memory access, so wall-clock scaling claims are not checked
// under it.
const raceEnabled = true
