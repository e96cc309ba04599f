//go:build race

package mat

// raceEnabled reports whether this test binary was built with -race.
// sync.Pool randomizes its fast path under the race detector, so the
// pool-backed zero-allocation pin is only meaningful without it.
const raceEnabled = true
