//go:build race

package mhs

func init() { raceEnabled = true }
