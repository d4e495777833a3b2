//go:build race

package parsim

// raceDetector reports a build with the race detector, whose
// instrumentation slows the window and the snapshot unequally: a cost
// ratio measured under it is not the one a test may bound.
const raceDetector = true
