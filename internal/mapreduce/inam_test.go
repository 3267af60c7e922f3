package mapreduce

import (
	"bytes"
	"testing"
	"time"

	"mrapid/internal/profiler"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

func TestUberEligibleRule(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Params.HDFSBlockBytes = 1 << 20 // 1 MB block for the size check

	stage := func(name string, files int, size int) []string {
		var names []string
		for i := 0; i < files; i++ {
			n := name + "/" + string(rune('a'+i))
			rt.DFS.PutInstant(n, bytes.Repeat([]byte("x\n"), size/2), rt.Cluster.Workers()[0])
			names = append(names, n)
		}
		return names
	}

	// Small job: 4 maps, 1 reduce, 200 KB total → eligible.
	small := wcSpec(stage("/small", 4, 50<<10), "/out1")
	if ok, err := UberEligible(rt, small); err != nil || !ok {
		t.Fatalf("small job not eligible: %v %v", ok, err)
	}

	// Too many mappers: 10 files.
	many := wcSpec(stage("/many", 10, 1<<10), "/out2")
	if ok, _ := UberEligible(rt, many); ok {
		t.Fatal("10-map job eligible")
	}

	// More than one reducer.
	multiR := wcSpec(stage("/multir", 2, 1<<10), "/out3")
	multiR.NumReduces = 2
	if ok, _ := UberEligible(rt, multiR); ok {
		t.Fatal("2-reduce job eligible")
	}

	// Input at/over one block.
	big := wcSpec(stage("/big", 2, 600<<10), "/out4") // 1.2 MB ≥ 1 MB block
	if ok, _ := UberEligible(rt, big); ok {
		t.Fatal("over-block job eligible")
	}

	// Missing input propagates the error.
	missing := wcSpec([]string{"/nope"}, "/out5")
	if _, err := UberEligible(rt, missing); err == nil {
		t.Fatal("missing input did not error")
	}
}

// TestInAMProgressAndKill drives the in-AM executor directly: with the zero
// options (stock Uber, killed after the first of its sequential maps) and
// with FullUPlus (killed inside its single parallel wave), progress starts at
// 0/n and a job killed mid-run never reports completion.
func TestInAMProgressAndKill(t *testing.T) {
	for _, tc := range []struct {
		opts   InAMOptions
		killAt time.Duration
	}{{InAMOptions{}, 3 * time.Second}, {FullUPlus(), time.Second}} {
		opts := tc.opts
		rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
		names, _ := stageWordCountInput(t, rt, 3, 128<<10)
		spec := wcSpec(names, "/out")
		spec.MapRate = 1e5 // ~1.3 s per map so the kill lands mid-run
		app := rt.RM.NewApp("u")
		prof := &profiler.JobProfile{Job: "u", Mode: "uber", SubmittedAt: rt.Eng.Now()}
		am, err := NewInAM(rt, spec, app, rt.Cluster.Workers()[0], prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		if done, total := am.Progress(); done != 0 || total != 3 {
			t.Fatalf("initial progress = %d/%d", done, total)
		}
		finished := false
		rt.Eng.After(0, func() {
			am.Run(func(_ *profiler.JobProfile, err error) { finished = true })
		})
		rt.Eng.RunUntil(rt.Eng.Now().Add(tc.killAt))
		am.Kill()
		am.Kill() // idempotent
		rt.Eng.RunUntil(rt.Eng.Now().Add(1 << 40))
		if finished {
			t.Fatalf("killed in-AM job (%+v) reported completion", opts)
		}
		rt.RM.Stop()
	}
}

// Whitebox: a map attempt that dies after admitting its output to the U+
// memory cache must refund the admitted bytes before the retry, or every
// crashed-and-retried map leaks budget. The phantom admission stands in for
// the dead attempt's charge; after the retry succeeds the cache must hold
// exactly the successful attempt's bytes.
func TestUPlusCacheRefundOnCrashedAttempt(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	fi := new(FaultInjector)
	fi.Fail("map", 0, 0, 0.5)
	rt.Faults = fi
	names, _ := stageWordCountInput(t, rt, 1, 256<<10)
	app := rt.RM.NewApp("uplus-refund")
	node := rt.Cluster.Workers()[0]
	prof := &profiler.JobProfile{}
	am, err := NewInAM(rt, wcSpec(names, "/out"), app, node, prof, FullUPlus())
	if err != nil {
		t.Fatal(err)
	}
	const phantom = int64(10_000)
	am.admitted[0] = phantom
	am.cache.Hold(phantom)
	// The cache empties at teardown, so read it while the output is resident.
	var held int64
	am.OnMapComplete = func(*profiler.TaskProfile) { held = am.cache.Used() }
	var jobErr error
	finished := false
	rt.Eng.After(0, func() {
		am.Run(func(_ *profiler.JobProfile, err error) {
			finished = true
			jobErr = err
		})
	})
	rt.Eng.RunUntil(horizon)
	if !finished || jobErr != nil {
		t.Fatalf("job finished=%v err=%v", finished, jobErr)
	}
	var out int64
	for _, tp := range prof.Tasks {
		if tp.Kind == profiler.MapTask && !tp.Failed {
			out = tp.OutputBytes
		}
	}
	if out == 0 {
		t.Fatal("no successful map attempt recorded")
	}
	if held != out {
		t.Fatalf("cacheUsed = %d, want %d (phantom %d not refunded before retry)", held, out, phantom)
	}
	if am.cache.Used() != 0 {
		t.Fatalf("finished AM still holds %d cache bytes", am.cache.Used())
	}
}
