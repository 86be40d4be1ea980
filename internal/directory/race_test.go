//go:build race

package directory

func init() { raceEnabled = true }
