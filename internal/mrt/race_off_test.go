//go:build !race

package mrt

const raceEnabled = false
