//go:build race

package sketch

// raceEnabled reports a -race build, which runs the SWAR kernels (see
// useAVX2).
const raceEnabled = true
