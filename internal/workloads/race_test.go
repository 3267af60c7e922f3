//go:build race

package workloads

func init() { raceDetector = true }
