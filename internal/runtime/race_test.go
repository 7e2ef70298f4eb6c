//go:build race

package runtime

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts stop being repeatable.
const raceEnabled = true
