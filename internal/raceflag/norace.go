//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Allocation budgets cannot hold under it: sync.Pool drops a quarter of what
// it is handed there, on purpose, to shake out reuse bugs.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false
