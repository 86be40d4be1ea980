//go:build race

package channel

func init() { raceEnabled = true }
