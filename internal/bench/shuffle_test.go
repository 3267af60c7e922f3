package bench

import "testing"

// TestShuffleExperiment runs the shuffle-service experiment at test scale.
// The experiment itself enforces byte-identical outputs and the
// nodes × reduces fetch bound; the assertions here cover the claims the
// EXPERIMENTS table makes: consolidation cuts the fetch count on every
// workload, the in-node combiner cuts shuffle bytes on combiner workloads,
// and lz compression cuts network bytes everywhere.
func TestShuffleExperiment(t *testing.T) {
	t.Parallel()
	fig, err := Shuffle(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	cases := shuffleCases()
	configs := shuffleConfigs()
	if len(fig.Points) != len(cases)*len(configs) {
		t.Fatalf("points = %d, want %d", len(fig.Points), len(cases)*len(configs))
	}
	get := func(ci, fi int, col string) float64 {
		return fig.Points[ci*len(configs)+fi].Seconds[col]
	}
	for ci, c := range cases {
		off, svc, lz := get(ci, 0, "fetches"), get(ci, 1, "fetches"), get(ci, 2, "fetches")
		if svc >= off {
			t.Errorf("%s: consolidated fetches %.0f not below per-map %.0f", c.Name, svc, off)
		}
		if lz != svc {
			t.Errorf("%s: codec changed the fetch count (%.0f vs %.0f)", c.Name, lz, svc)
		}
		if c.Combiner {
			if get(ci, 1, "shuffle-MB") >= get(ci, 0, "shuffle-MB") {
				t.Errorf("%s: in-node combine did not reduce shuffle bytes (%.3f vs %.3f MB)",
					c.Name, get(ci, 1, "shuffle-MB"), get(ci, 0, "shuffle-MB"))
			}
		}
		if get(ci, 2, "net-MB") >= get(ci, 1, "net-MB") {
			t.Errorf("%s: lz did not reduce network bytes (%.3f vs %.3f MB)",
				c.Name, get(ci, 2, "net-MB"), get(ci, 1, "net-MB"))
		}
		for fi := range configs {
			if get(ci, fi, "seconds") <= 0 {
				t.Errorf("%s/%s: non-positive job time", c.Name, configs[fi].Name)
			}
		}
	}
}

// TestShuffleDeterministic re-runs one service configuration and requires
// identical measurements — the consolidated shuffle must not perturb the
// simulation's determinism.
func TestShuffleDeterministic(t *testing.T) {
	t.Parallel()
	c := shuffleCases()[0]
	cfg := shuffleConfigs()[2] // svc+lz, the most machinery engaged
	o := Options{Scale: 0.05, Seed: 3}
	a, err := RunShuffleCase(A3x4(), c, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShuffleCase(A3x4(), c, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fetches != b.Fetches || a.NetworkMB != b.NetworkMB || a.TotalMB != b.TotalMB || a.Seconds != b.Seconds {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
