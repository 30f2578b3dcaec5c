//go:build !race

package simulate

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so moves allocation counts.
const raceEnabled = false
