//go:build race

package information

func init() { raceEnabled = true }
