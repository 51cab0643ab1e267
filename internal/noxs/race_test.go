//go:build race

package noxs

func init() { raceEnabled = true }
