//go:build !race

package httpapi

const raceEnabled = false
