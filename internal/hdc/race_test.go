//go:build race

package hdc

func init() { raceEnabled = true }
