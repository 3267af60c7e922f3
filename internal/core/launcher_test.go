package core

import (
	"hash/fnv"
	"testing"
	"time"

	"mrapid/internal/mapreduce"
	"mrapid/internal/shuffle"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
	"mrapid/internal/yarn"
)

// launchFingerprint is the observable behavior of one launch flow: when the
// job finished, what it wrote, and how its profile describes the run. The
// expected values below were captured on the pre-refactor per-mode launch
// bodies (launchDPlus/launchUPlus); the one submission lifecycle must
// reproduce them bit for bit — the refactors were structure, not behavior —
// except the three cases re-pinned below, each with its reason.
type launchFingerprint struct {
	elapsed    time.Duration
	outHash    uint64
	outLen     int
	mode       string
	maps       int
	containers int
	poolHit    bool
	amStartup  time.Duration
	tasks      int
}

func fingerprintOf(t *testing.T, rt *mapreduce.Runtime, res *mapreduce.Result, out string) launchFingerprint {
	t.Helper()
	if res == nil {
		t.Fatal("job never completed")
	}
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	// Every reduce partition, in order (one part file for the single-reduce
	// cases, so their pinned hashes are the hash of part-00000 alone).
	h := fnv.New64a()
	outLen := 0
	for part := 0; part < res.Spec.NumReduces; part++ {
		b, err := rt.DFS.Contents(mapreduce.PartFileName(out, part))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		outLen += len(b)
	}
	p := res.Profile
	return launchFingerprint{
		elapsed:    p.Elapsed(),
		outHash:    h.Sum64(),
		outLen:     outLen,
		mode:       res.Mode,
		maps:       p.NumMaps,
		containers: p.NumContainers,
		poolHit:    p.AMPoolHit,
		amStartup:  p.AMStartup,
		tasks:      len(p.Tasks),
	}
}

// launchFlow runs the standard 4×1 MiB word count through Framework.Submit
// in one mode — on a pool of the given size, with or without the shuffle
// service attached — and fingerprints the outcome.
func launchFlow(t *testing.T, sched yarn.Scheduler, pool int, service bool, reduces int, mode ModeKind) launchFingerprint {
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
	return fingerprintOf(t, rt, res, "/out")
}

// coldFlow runs the standard word count in an MRapid mode on a size-0 pool —
// permanently exhausted, so the job continues on the cold source — and checks
// that it was counted as one fallback and staged once.
func coldFlow(t *testing.T, mode ModeKind) launchFingerprint {
	t.Helper()
	rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
	rt.Trace = trace.New(rt.Eng, 1<<12)
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
	fp := fingerprintOf(t, rt, res, "/out")
	if f.StockFallbacks != 1 {
		t.Fatalf("StockFallbacks = %d, want 1", f.StockFallbacks)
	}
	assertStagedOnce(t, rt, res, written)
	return fp
}

// TestLauncherGoldenFingerprints drives every launch flow — D+, U+, the
// pool-exhaustion stock fallback, the AM-loss relaunch, the speculative
// race, the two stock modes, cold U+, and D+/U+ reading back through the
// shuffle service — through the one submission lifecycle and pins each flow's
// behavior to the fingerprint the per-mode launch bodies produced before the
// refactor. Any drift in virtual timing, output bytes, or profile shape
// fails the test.
func TestLauncherGoldenFingerprints(t *testing.T) {
	const wcHash = uint64(427899536177052244)    // word-count output, 4×1MiB synthetic input
	const wc2Hash = uint64(10493004734913191624) // the same output hash-partitioned over two reduces

	cases := []struct {
		name string
		run  func(t *testing.T) launchFingerprint
		want launchFingerprint
	}{
		{
			name: "dplus",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, false, 1, ModeDPlus)
			},
			want: launchFingerprint{
				elapsed: 4373972954, outHash: wcHash, outLen: 122, mode: "dplus",
				maps: 4, containers: 28, poolHit: true, amStartup: 93608470, tasks: 5,
			},
		},
		{
			name: "uplus",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, false, 1, ModeUPlus)
			},
			want: launchFingerprint{
				elapsed: 1261532080, outHash: wcHash, outLen: 122, mode: "uplus",
				maps: 4, containers: 1, poolHit: true, amStartup: 93608470, tasks: 5,
			},
		},
		{
			// A size-0 pool is permanently exhausted: a D+ submission must degrade
			// to the stock distributed path (cold AM, poll-based completion).
			name: "stock-fallback",
			run: func(t *testing.T) launchFingerprint {
				return coldFlow(t, ModeDPlus)
			},
			// Re-pinned with the one submission lifecycle: the degraded job
			// is the same submission continuing on the cold source, so it keeps
			// its mode label ("hadoop" → "dplus") and stages once — amStartup
			// 4383131028 → 4123608470, the second 259.5 ms upload it no longer
			// pays. elapsed is poll-aligned and stays on the same tick.
			want: launchFingerprint{
				elapsed: 9000000000, outHash: wcHash, outLen: 122, mode: "dplus",
				maps: 4, containers: 28, poolHit: false, amStartup: 4123608470, tasks: 5,
			},
		},
		{
			// The serving AM's node dies mid-job: the attempt fails with
			// ErrAMLost, partial output is wiped, and a fresh pooled AM reruns
			// the job to a clean finish.
			name: "am-loss-relaunch",
			run: func(t *testing.T) launchFingerprint {
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
				return fingerprintOf(t, rt, res, "/out")
			},
			// Re-pinned with the one submission lifecycle: one profile covers
			// both attempts, so the job is measured from its first hand-off to
			// the proxy, not from the relaunch — elapsed 4340281966 →
			// 10110759408, amStartup 94302381 → 5864779823 (ready on the second
			// AM, counted from submission like a cold relaunch's), tasks 5 → 8
			// (the first attempt's three finished maps stay on record).
			want: launchFingerprint{
				elapsed: 10110759408, outHash: wcHash, outLen: 122, mode: "dplus",
				maps: 4, containers: 28, poolHit: true, amStartup: 5864779823, tasks: 8,
			},
		},
		{
			// Both modes race; the estimator's verdict kills the projected
			// loser (D+ here) and the U+ winner's output is promoted.
			name: "speculative-kill",
			run: func(t *testing.T) launchFingerprint {
				rt := newRuntime(t, topology.A3, 4, NewDPlusScheduler(FullDPlus()))
				f := startFramework(t, rt, 3)
				names, _ := stageInput(t, rt, 4, 1<<20)
				var res *mapreduce.Result
				rt.Eng.After(0, func() {
					f.Submit(ModeSpeculative, testWCSpec(names, "/out"), func(r *mapreduce.Result) { res = r; rt.RM.Stop() })
				})
				rt.Eng.RunUntil(horizon)
				if res == nil {
					t.Fatal("speculative run never completed")
				}
				if ModeKind(res.Mode) != ModeUPlus {
					t.Fatalf("winner = %s, want %s", ModeKind(res.Mode), ModeUPlus)
				}
				if res.Profile.Decision.EstimateD != 5467440281 || res.Profile.Decision.EstimateU != 194781382 {
					t.Fatalf("estimates D=%d U=%d, want D=5467440281 U=194781382", res.Profile.Decision.EstimateD, res.Profile.Decision.EstimateU)
				}
				if res.Profile.Decision.At != 60579447673 {
					t.Fatalf("Decision.At = %d, want 60579447673", res.Profile.Decision.At)
				}
				return fingerprintOf(t, rt, res, "/out")
			},
			want: launchFingerprint{
				elapsed: 1262225991, outHash: wcHash, outLen: 122, mode: "uplus",
				maps: 4, containers: 1, poolHit: true, amStartup: 94302381, tasks: 5,
			},
		},
		{
			// Stock Uber through the framework's cold path: the in-AM executor
			// with zero options.
			name: "uber",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, yarn.NewStockScheduler(), 0, false, 1, ModeUber)
			},
			want: launchFingerprint{
				elapsed: 7000000000, outHash: wcHash, outLen: 122, mode: "uber",
				maps: 4, containers: 1, poolHit: false, amStartup: 4494302381, tasks: 5,
			},
		},
		{
			name: "hadoop",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, yarn.NewStockScheduler(), 0, false, 1, ModeHadoop)
			},
			want: launchFingerprint{
				elapsed: 10000000000, outHash: wcHash, outLen: 122, mode: "hadoop",
				maps: 4, containers: 28, poolHit: false, amStartup: 4494302381, tasks: 5,
			},
		},
		{
			// U+ on a size-0 pool degrades to the cold in-AM submission: AM
			// allocated and launched through YARN, poll-based completion.
			name: "uplus-cold",
			run: func(t *testing.T) launchFingerprint {
				return coldFlow(t, ModeUPlus)
			},
			// Re-pinned like stock-fallback: staged once, amStartup 4383131028
			// → 4123608470.
			want: launchFingerprint{
				elapsed: 6000000000, outHash: wcHash, outLen: 122, mode: "uplus",
				maps: 4, containers: 1, poolHit: false, amStartup: 4123608470, tasks: 5,
			},
		},
		{
			// Shuffle service attached, two reduces: consolidated per-node
			// fetches once every map has committed.
			name: "dplus-service",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, true, 2, ModeDPlus)
			},
			want: launchFingerprint{
				elapsed: 4377828011, outHash: wc2Hash, outLen: 122, mode: "dplus",
				maps: 4, containers: 28, poolHit: true, amStartup: 93608470, tasks: 6,
			},
		},
		{
			name: "uplus-service",
			run: func(t *testing.T) launchFingerprint {
				return launchFlow(t, NewDPlusScheduler(FullDPlus()), 3, true, 2, ModeUPlus)
			},
			want: launchFingerprint{
				elapsed: 1304942112, outHash: wc2Hash, outLen: 122, mode: "uplus",
				maps: 4, containers: 1, poolHit: true, amStartup: 93608470, tasks: 6,
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if got != tc.want {
				t.Errorf("fingerprint drifted:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestModeTable checks the mode table — which AM each single-mode ModeKind
// runs and whether it comes from the pool — and that a kind outside the table
// is an error result from Framework.Submit and a rejection from the JobServer,
// except ModeSpeculative, which both take to the decision maker.
func TestModeTable(t *testing.T) {
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
