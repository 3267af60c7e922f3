package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

// referencePlace is place as it was when it built its candidate lists —
// live workers, the off-rack ones, the second replica's rack-mates — as
// slices: the oracle place must agree with draw for draw.
func referencePlace(d *DFS, writer *topology.Node) []*topology.Node {
	var workers []*topology.Node
	for _, n := range d.cluster.Workers() {
		if n.Alive() {
			workers = append(workers, n)
		}
	}
	if len(workers) == 0 {
		panic("hdfs: cluster has no live workers")
	}
	var first *topology.Node
	if writer != nil && writer != d.cluster.Master() && writer.Alive() {
		first = writer
	} else {
		first = workers[d.rng.Intn(len(workers))]
	}
	replicas := []*topology.Node{first}
	if d.replication == 1 {
		return replicas
	}
	var remoteRack []*topology.Node
	for _, n := range workers {
		if n.Rack != first.Rack {
			remoteRack = append(remoteRack, n)
		}
	}
	if len(remoteRack) > 0 {
		second := remoteRack[d.rng.Intn(len(remoteRack))]
		replicas = append(replicas, second)
		if d.replication >= 3 {
			var sameRemote []*topology.Node
			for _, n := range workers {
				if n.Rack == second.Rack && n != second {
					sameRemote = append(sameRemote, n)
				}
			}
			if len(sameRemote) > 0 {
				replicas = append(replicas, sameRemote[d.rng.Intn(len(sameRemote))])
			}
		}
	}
	for len(replicas) < d.replication && len(replicas) < len(workers) {
		cand := workers[d.rng.Intn(len(workers))]
		dup := false
		for _, r := range replicas {
			if r == cand {
				dup = true
				break
			}
		}
		if !dup {
			replicas = append(replicas, cand)
		}
	}
	return replicas
}

func placeCluster(tb testing.TB) *topology.Cluster {
	tb.Helper()
	c, err := topology.NewCluster(sim.NewEngine(), topology.Spec{Instance: topology.A3, Workers: 256, Racks: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestPlaceMatchesReference: place returns the reference's nodes in the
// reference's order, consuming exactly its rng draws, over 10 000
// placements per replication factor while nodes crash and restart between
// them — down to whole racks, where the off-rack and same-rack steps find
// no candidate — and it allocates only the slice it returns.
func TestPlaceMatchesReference(t *testing.T) {
	for _, repl := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("replication=%d", repl), func(t *testing.T) {
			c := placeCluster(t)
			got, want := New(c.Eng, c, 128<<20, repl, 7), New(c.Eng, c, 128<<20, repl, 7)
			churn := rand.New(rand.NewSource(int64(repl)))
			workers := c.Workers()
			for i := range 10000 {
				// Crash or restart a few nodes; every 1000 placements take
				// all but one rack down for the next hundred.
				for range churn.Intn(4) {
					if n := workers[churn.Intn(len(workers))]; n.Alive() {
						n.Fail()
					} else {
						n.Restart()
					}
				}
				if i%1000 == 0 {
					for _, n := range workers {
						if n.Rack != "rack-3" {
							n.Fail()
						}
					}
				}
				if i%1000 == 100 {
					for _, n := range workers {
						n.Restart()
					}
				}
				var writer *topology.Node
				switch churn.Intn(4) {
				case 0:
					writer = c.Master()
				case 1, 2:
					writer = workers[churn.Intn(len(workers))]
				}
				if g, w := got.place(writer), want.place(writer); !slices.Equal(g, w) {
					t.Fatalf("placement %d (writer %v) = %v, want %v", i, writer, g, w)
				}
			}
			if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
				t.Fatalf("next rng draw %d, want %d: place drew a different number of values", g, w)
			}
			if allocs := testing.AllocsPerRun(100, func() { got.place(nil) }); allocs != 1 {
				t.Fatalf("one placement allocates %.0f times, want 1 (its replica slice)", allocs)
			}
		})
	}
}

// BenchmarkPlace places one block's three replicas on 256 workers in 8
// racks, for a writer outside the cluster (the first replica is drawn too).
func BenchmarkPlace(b *testing.B) {
	c := placeCluster(b)
	d := New(c.Eng, c, 128<<20, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.place(nil)
	}
}
