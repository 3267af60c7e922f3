//go:build forcelanes

package mapreduce

// Built with -tags forcelanes, every Runtime gets three host lanes whatever
// GOMAXPROCS is, and offers their queues to the workers however many
// simulations are live (see laneHook): the package tests of every package
// above this one then run their task bodies, key ranges and consolidation
// pieces on lane workers and helper goroutines, which t.Parallel tests
// otherwise rarely reach.
func init() { laneHook.Store(3 + 1) }
