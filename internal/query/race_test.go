//go:build race

package query

func init() { raceDetector = true }
