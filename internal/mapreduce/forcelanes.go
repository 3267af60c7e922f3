//go:build forcelanes

package mapreduce

// Built with -tags forcelanes, every Runtime gets three host lanes in place
// of laneCount, and lists its work on the worker pool however many
// simulations are live and whatever GOMAXPROCS is (see laneHook): the
// package tests of every package above this one then run their task
// bodies, key ranges and consolidation pieces on pool workers, which
// t.Parallel tests otherwise rarely reach.
func init() { laneHook.Store(3 + 1) }
