//go:build !race

package channel

// poisonFrames is off outside the race detector: a released buffer is
// reused as it is.
const poisonFrames = false
