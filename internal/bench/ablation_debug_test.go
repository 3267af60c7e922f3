package bench

import (
	"fmt"
	"testing"

	"mrapid/internal/core"
	"mrapid/internal/pin"
	"mrapid/internal/profiler"
	"mrapid/internal/yarn"
)

// TestDebugSchedulerAblation pins where stock YARN and the D+ balanced-spread
// scheduler — Fig. 14's first two steps — place the eight maps of a
// WordCount over 1 MB files, and the job's timeline under each. Spreading
// must use more nodes than stock packing.
func TestDebugSchedulerAblation(t *testing.T) {
	t.Parallel()
	stock := Variant{Name: "hadoop", NewScheduler: func() yarn.Scheduler { return yarn.NewStockScheduler() }, Mode: core.ModeHadoop}
	spread := Variant{Name: "spread", NewScheduler: func() yarn.Scheduler {
		return core.NewDPlusScheduler(core.DPlusOptions{BalancedSpread: true})
	}, Mode: core.ModeHadoop}
	used := map[string]int{}
	for _, v := range []Variant{stock, spread} {
		env, err := NewEnv(A3x4(), v)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := StageWordCount(env, 8, 1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Run(v, spec)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		rec := pin.Record{
			"am_ready_s":   pin.Seconds(p.AMReadyAt.Sub(p.SubmittedAt)),
			"first_task_s": pin.Seconds(p.FirstTaskAt.Sub(p.SubmittedAt)),
			"maps_done_s":  pin.Seconds(p.MapsDoneAt.Sub(p.SubmittedAt)),
			"elapsed_s":    pin.Seconds(p.Elapsed()),
		}
		maps := map[string]int{}
		for _, tp := range p.Tasks {
			if tp.Kind == profiler.MapTask {
				maps[tp.Node]++
			}
		}
		for node, n := range maps {
			rec["maps@"+node] = n
		}
		used[v.Name] = len(maps)
		pin.Check(t, fmt.Sprintf("placement %s wordcount 8x1MB", v.Name), rec)
	}
	if used["spread"] <= used["hadoop"] {
		t.Errorf("balanced spread placed maps on %d nodes, stock packing on %d", used["spread"], used["hadoop"])
	}
}
