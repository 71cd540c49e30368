//go:build race

package core

// raceEnabled reports a -race build, whose runtime drops sync.Pool items at
// random: allocation counts of pooled paths are meaningless there.
const raceEnabled = true
