//go:build race

package gossip

func init() { raceEnabled = true }
