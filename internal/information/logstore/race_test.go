//go:build race

package logstore

func init() { raceEnabled = true }
