package mapreduce

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func TestWorkerPoolExecutesEverything(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("size = %d", p.Size())
	}
	var n atomic.Int64
	futs := make([]*Future[int], 100)
	for i := range futs {
		i := i
		futs[i] = Async(p, func() int {
			n.Add(1)
			return i * i
		})
	}
	for i, f := range futs {
		if got := f.Wait(); got != i*i {
			t.Fatalf("future %d = %d", i, got)
		}
	}
	if n.Load() != 100 {
		t.Fatalf("executed %d of 100", n.Load())
	}
}

func TestAsyncNilPoolRunsInline(t *testing.T) {
	ran := false
	f := Async[string](nil, func() string {
		ran = true
		return "inline"
	})
	if !ran {
		t.Fatal("nil-pool Async did not run inline")
	}
	if !f.Resolved() {
		t.Fatal("inline future not resolved")
	}
	// Wait is idempotent.
	if f.Wait() != "inline" || f.Wait() != "inline" {
		t.Fatal("Wait changed its answer")
	}
}

func TestWorkerPoolCloseIsIdempotent(t *testing.T) {
	p := NewWorkerPool(2)
	f := Async(p, func() int { return 7 })
	p.Close()
	p.Close() // second close must not panic
	if f.Wait() != 7 {
		t.Fatal("queued work lost on close")
	}
}

func TestRuntimeWorkerKnob(t *testing.T) {
	rt := &Runtime{}
	if rt.workerPool() != nil {
		t.Fatal("Workers=0 built a pool")
	}
	rt.Workers = 1
	if rt.workerPool() != nil {
		t.Fatal("Workers=1 built a pool")
	}
	rt.Workers = 3
	p := rt.workerPool()
	if p == nil || p.Size() != 3 {
		t.Fatalf("Workers=3 pool = %+v", p)
	}
	if rt.workerPool() != p {
		t.Fatal("pool not reused")
	}
	rt.CloseWorkers()
	rt.Workers = -1
	p = rt.workerPool()
	if p == nil || p.Size() != DefaultWorkers() {
		t.Fatal("Workers=-1 did not size by GOMAXPROCS")
	}
	rt.CloseWorkers()
	rt.CloseWorkers() // idempotent
}

// runWorkersJob executes one multi-split wordcount through the distributed
// submission path with the given host parallelism and returns the virtual
// completion time, total engine events fired, and the job's output bytes.
func runWorkersJob(t *testing.T, workers int) (sim.Time, uint64, []byte) {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Workers = workers
	defer rt.CloseWorkers()
	var names []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("/in/part-%d", i)
		data := bytes.Repeat([]byte(fmt.Sprintf("split %d alpha beta gamma delta %d\n", i, i*i)), 6000)
		rt.DFS.PutInstant(name, data, rt.Cluster.Workers()[i%4])
		names = append(names, name)
	}
	spec := wcSpec(names, "/out")
	spec.NumReduces = 2
	var res *Result
	rt.Eng.After(0, func() {
		Submit(rt, spec, ModeDistributed, func(r *Result) {
			res = r
			rt.RM.Stop()
		})
	})
	end := rt.Eng.RunUntil(sim.Time(1 << 42))
	if res == nil {
		t.Fatal("job did not finish")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var out []byte
	for p := 0; p < spec.NumReduces; p++ {
		data, err := rt.DFS.Contents(PartFileName("/out", p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return end, rt.Eng.Fired(), out
}

// Determinism guarantee of the parallel execution layer: the virtual
// timeline (completion time and event count) and every output byte are
// identical whether the pure computations run sequentially or on N real
// threads.
func TestWorkersDeterminism(t *testing.T) {
	seqEnd, seqFired, seqOut := runWorkersJob(t, 1)
	if len(seqOut) == 0 {
		t.Fatal("no output")
	}
	for _, workers := range []int{4, -1} {
		end, fired, out := runWorkersJob(t, workers)
		if end != seqEnd {
			t.Errorf("Workers=%d virtual completion %v != sequential %v", workers, end, seqEnd)
		}
		if fired != seqFired {
			t.Errorf("Workers=%d fired %d events != sequential %d", workers, fired, seqFired)
		}
		if !bytes.Equal(out, seqOut) {
			t.Errorf("Workers=%d output differs from sequential", workers)
		}
	}
}

// The same guarantee holds with one MapCache shared by every run: the
// sequential run stores the flat outputs, the parallel runs hit them, and
// their reduces — two partitions, so two at a time — read the cached
// indexes and stores concurrently. Flat outputs are immutable once stored;
// under -race this is the proof.
func TestWorkersDeterminismWithSharedCache(t *testing.T) {
	cache := NewMapCache(1 << 28)
	run := func(workers int) (sim.Time, []byte) {
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		rt.Workers = workers
		rt.MapCache = cache
		defer rt.CloseWorkers()
		var names []string
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("/in/f%d", i)
			data := bytes.Repeat([]byte(fmt.Sprintf("cached words repeat here %d\n", i%3)), 4000)
			rt.DFS.PutInstant(name, data, rt.Cluster.Workers()[i%4])
			names = append(names, name)
		}
		spec := wcSpec(names, "/out")
		spec.NumReduces = 2
		var res *Result
		rt.Eng.After(0, func() {
			Submit(rt, spec, ModeDistributed, func(r *Result) {
				res = r
				rt.RM.Stop()
			})
		})
		end := rt.Eng.RunUntil(sim.Time(1 << 42))
		if res == nil || res.Err != nil {
			t.Fatalf("job failed: %+v", res)
		}
		var out []byte
		for p := 0; p < spec.NumReduces; p++ {
			data, err := rt.DFS.Contents(PartFileName("/out", p))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, data...)
		}
		return end, out
	}
	seqEnd, seqOut := run(0)
	if cache.Hits() != 0 || cache.Len() != 6 {
		t.Fatalf("sequential run: %d hits, %d entries; want 0 and 6", cache.Hits(), cache.Len())
	}
	for _, workers := range []int{4, 8} {
		hits := cache.Hits()
		parEnd, parOut := run(workers)
		if seqEnd != parEnd {
			t.Errorf("Workers=%d cached run completion %v != sequential %v", workers, parEnd, seqEnd)
		}
		if !bytes.Equal(seqOut, parOut) {
			t.Errorf("Workers=%d cached run output differs", workers)
		}
		if cache.Hits() != hits+6 {
			t.Errorf("Workers=%d: %d cache hits, want 6", workers, cache.Hits()-hits)
		}
	}
}
