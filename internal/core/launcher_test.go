package core

import (
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/pin"
	"mrapid/internal/shuffle"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// runRecord is what a finished job must reproduce: when it finished, when its
// last task attempt ended (a cold submission rounds elapsed up to the
// client's next status poll, which would hide sub-second drift), what it
// wrote over every reduce partition in order, how its profile describes the
// run, what the decision maker did, and how many engine events and container
// allocations it took.
func runRecord(t *testing.T, rt *mapreduce.Runtime, res *mapreduce.Result, out string) pin.Record {
	t.Helper()
	if res == nil {
		t.Fatal("job never completed")
	}
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	var parts [][]byte
	outLen := 0
	for part := 0; part < res.Spec.NumReduces; part++ {
		b, err := rt.DFS.Contents(mapreduce.PartFileName(out, part))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b)
		outLen += len(b)
	}
	p := res.Profile
	var lastTask time.Duration
	for _, tp := range p.Tasks {
		lastTask = max(lastTask, tp.Ended.Sub(p.SubmittedAt))
	}
	rec := pin.Record{
		"elapsed_s":    pin.Seconds(p.Elapsed()),
		"last_task_s":  pin.Seconds(lastTask),
		"output":       pin.Digest(parts...),
		"output_bytes": outLen,
		"mode":         res.Mode,
		"maps":         p.NumMaps,
		"containers":   p.NumContainers,
		"pool_hit":     p.AMPoolHit,
		"am_startup_s": pin.Seconds(p.AMStartup),
		"tasks":        len(p.Tasks),
		"events":       rt.Eng.Fired(),
		"allocations":  rt.RM.Metrics.Allocations,
	}
	if d := p.Decision; d.Source != "" { // the decision maker made one
		rec["decision"] = d.Source
		rec["decision.estimate_d_s"] = pin.Seconds(d.EstimateD)
		rec["decision.estimate_u_s"] = pin.Seconds(d.EstimateU)
		rec["decision.at_s"] = pin.Seconds(time.Duration(d.At))
	}
	return rec
}

// launchFlow runs the standard 4×1 MiB word count through Framework.Submit
// in one mode — on a pool of the given size, with or without the shuffle
// service attached — and records the outcome.
func launchFlow(t *testing.T, sched yarn.Scheduler, pool int, service bool, reduces int, mode ModeKind) pin.Record {
	t.Helper()
	rt := newRuntime(t, topology.A3, 4, sched)
	if service {
		if _, err := shuffle.Attach(rt); err != nil {
			t.Fatal(err)
		}
	}
	f := startFramework(t, rt, pool)
	names, _ := stageInput(t, rt, 4, 1<<20)
	spec := testWCSpec(names, "/out")
	spec.NumReduces = reduces
	var res *mapreduce.Result
	rt.Eng.After(0, func() {
		f.Submit(mode, spec, func(r *mapreduce.Result) { res = r; rt.RM.Stop() })
	})
	rt.Eng.RunUntil(horizon)
	return runRecord(t, rt, res, "/out")
}

// coldFlow runs the standard word count in an MRapid mode on a size-0 pool —
// permanently exhausted, so the job continues on the cold source — and checks
// that it was counted as one fallback and staged once.
func coldFlow(t *testing.T, mode ModeKind) pin.Record {
	t.Helper()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Trace = trace.New(rt.Eng, 0)
	f := startFramework(t, rt, 0)
	names, _ := stageInput(t, rt, 4, 1<<20)
	var res *mapreduce.Result
	var written int64
	rt.Eng.After(0, func() {
		written = rt.DFS.BytesWritten
		f.Submit(mode, testWCSpec(names, "/out"), func(r *mapreduce.Result) {
			res, written = r, rt.DFS.BytesWritten-written
			rt.RM.Stop()
		})
	})
	rt.Eng.RunUntil(horizon)
	rec := runRecord(t, rt, res, "/out")
	if f.StockFallbacks != 1 {
		t.Fatalf("StockFallbacks = %d, want 1", f.StockFallbacks)
	}
	assertStagedOnce(t, rt, res, written)
	return rec
}

// TestLauncherGoldenFingerprints drives every launch flow — D+, U+, the
// pool-exhaustion stock fallback, the AM-loss relaunch, the speculative
// race, the two stock modes, cold U+, and D+/U+ reading back through the
// shuffle service — through the one submission lifecycle and pins each
// flow's record under "launch <flow>". Any drift in virtual timing, output
// bytes, profile shape or the race's decision fails the test.
//
// The values were captured on the pre-refactor per-mode launch bodies
// (launchDPlus/launchUPlus); the refactors since were structure, not
// behaviour, except three re-pins with the one submission lifecycle:
//
//   - stock-fallback and uplus-cold: the degraded job is the same submission
//     continuing on the cold source, so it keeps its mode label ("hadoop" →
//     "dplus") and stages once — am_startup_s 4.383131028 → 4.123608470, the
//     second 259.5 ms upload it no longer pays. elapsed_s is poll-aligned and
//     stays on the same tick.
//   - am-loss-relaunch: one profile covers both attempts, so the job is
//     measured from its first hand-off to the proxy, not from the relaunch —
//     elapsed_s 4.340281966 → 10.110759408, am_startup_s 0.094302381 →
//     5.864779823 (ready on the second AM, counted from submission like a
//     cold relaunch's), tasks 5 → 8 (the first attempt's three finished maps
//     stay on record).
func TestLauncherGoldenFingerprints(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		run  func(t *testing.T) pin.Record
	}{
		{"dplus", func(t *testing.T) pin.Record {
			return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, false, 1, ModeDPlus)
		}},
		{"uplus", func(t *testing.T) pin.Record {
			return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, false, 1, ModeUPlus)
		}},
		// A size-0 pool is permanently exhausted: a D+ submission must degrade
		// to the stock distributed path (cold AM, poll-based completion).
		{"stock-fallback", func(t *testing.T) pin.Record { return coldFlow(t, ModeDPlus) }},
		// The serving AM's node dies mid-job: the attempt fails with
		// ErrAMLost, partial output is wiped, and a fresh pooled AM reruns the
		// job to a clean finish.
		{"am-loss-relaunch", func(t *testing.T) pin.Record {
			rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
			f := startFramework(t, rt, 3)
			victim := f.Pool.ams[0].Node
			names, _ := stageInput(t, rt, 4, 1<<20)
			var res *mapreduce.Result
			rt.Eng.After(500*time.Millisecond, victim.Fail)
			rt.Eng.After(0, func() {
				f.Submit(ModeDPlus, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r })
			})
			rt.Eng.RunUntil(rt.Eng.Now().Add(600 * time.Second))
			rt.RM.Stop()
			if f.Pool.Lost != 1 {
				t.Fatalf("Pool.Lost = %d, want 1", f.Pool.Lost)
			}
			return runRecord(t, rt, res, "/out")
		}},
		// Both modes race; the estimator's verdict kills the projected loser
		// (D+ here) and the U+ winner's output is promoted. The record carries
		// the verdict: source, both estimates and the instant it was taken.
		{"speculative-kill", func(t *testing.T) pin.Record {
			return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, false, 1, ModeSpeculative)
		}},
		// Stock Uber through the framework's cold path: the in-AM executor
		// with zero options.
		{"uber", func(t *testing.T) pin.Record {
			return launchFlow(t, yarn.NewStockScheduler(), 0, false, 1, ModeUber)
		}},
		{"hadoop", func(t *testing.T) pin.Record {
			return launchFlow(t, yarn.NewStockScheduler(), 0, false, 1, ModeHadoop)
		}},
		// U+ on a size-0 pool degrades to the cold in-AM submission: AM
		// allocated and launched through YARN, poll-based completion.
		{"uplus-cold", func(t *testing.T) pin.Record { return coldFlow(t, ModeUPlus) }},
		// Shuffle service attached, two reduces: consolidated per-node
		// fetches once every map has committed.
		{"dplus-service", func(t *testing.T) pin.Record {
			return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, true, 2, ModeDPlus)
		}},
		{"uplus-service", func(t *testing.T) pin.Record {
			return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, true, 2, ModeUPlus)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pin.Check(t, "launch "+tc.name, tc.run(t))
		})
	}
}

// TestModeTable checks the mode table — which AM each single-mode ModeKind
// runs and whether it comes from the pool — and that a kind outside the table
// is an error result from Framework.Submit and a rejection from the JobServer,
// except ModeSpeculative, which both take to the decision maker.
func TestModeTable(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		kind ModeKind
		pool bool
	}{
		{ModeDPlus, true},
		{ModeUPlus, true},
		{ModeHadoop, false},
		{ModeUber, false},
	} {
		mode, pooled, err := ModeFor(tc.kind, FullUPlus())
		if err != nil {
			t.Fatalf("ModeFor(%s): %v", tc.kind, err)
		}
		if mode.String() != string(tc.kind) {
			t.Errorf("ModeFor(%s) runs mode %q", tc.kind, mode)
		}
		if pooled != tc.pool {
			t.Errorf("ModeFor(%s) pooled = %v, want %v", tc.kind, pooled, tc.pool)
		}
	}

	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	f := startFramework(t, rt, 3)
	srv, err := NewJobServer(f, JobServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := stageInput(t, rt, 4, 1<<20)
	var direct, raced *mapreduce.Result
	for _, kind := range []ModeKind{ModeSpeculative, ModeMemo, "bogus"} {
		if _, _, err := ModeFor(kind, FullUPlus()); err == nil {
			t.Errorf("ModeFor(%s) did not fail", kind)
		}
		var res *mapreduce.Result
		f.Submit(kind, testWCSpec(names, "/out/"+string(kind)), func(r *mapreduce.Result) {
			if res = r; kind == ModeSpeculative {
				direct = r
			}
		})
		if kind != ModeSpeculative && (res == nil || res.Err == nil) {
			t.Errorf("Framework.Submit(%s) = %+v, want an error result", kind, res)
		}
		spec := testWCSpec(names, "/out/srv-"+string(kind))
		spec.Name += "-srv" // staged next to the direct one
		err := srv.Submit("", kind, spec, func(r *mapreduce.Result) { raced = r })
		if (err == nil) != (kind == ModeSpeculative) {
			t.Errorf("JobServer.Submit(%s) = %v", kind, err)
		}
	}
	rt.Eng.RunUntil(rt.Eng.Now().Add(time.Minute))
	for route, res := range map[string]*mapreduce.Result{"Framework.Submit": direct, "JobServer.Submit": raced} {
		if res == nil || res.Err != nil || by(res) == "" {
			t.Fatalf("the speculative job did not complete through the decision maker via %s: %+v", route, res)
		}
	}
}
