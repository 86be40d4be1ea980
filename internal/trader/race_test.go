//go:build race

package trader

func init() { raceEnabled = true }
