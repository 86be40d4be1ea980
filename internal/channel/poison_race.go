//go:build race

package channel

// poisonFrames overwrites each frame buffer given back to the free list, so
// under the race detector a receiver that keeps a lent body fails its tests.
const poisonFrames = true
