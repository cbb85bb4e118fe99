//go:build !race

package etap

const raceEnabled = false
