//go:build !race

package mat

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
