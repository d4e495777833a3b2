//go:build !race

package parsim

// raceDetector reports a build with the race detector (race_test.go).
const raceDetector = false
