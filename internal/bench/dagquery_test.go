package bench

import "testing"

// TestDAGQuerySmoke is the CI gate for the query DAG scheduler: on a reduced
// workload the experiment itself enforces row-identity between the chain and
// DAG modes and a strict makespan win for the DAG; the test checks the
// reported figure is shaped and signed as documented.
func TestDAGQuerySmoke(t *testing.T) {
	t.Parallel()
	o := Options{Scale: 0.05, Seed: 7}
	fig, err := DAGQuery(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(fig.Points))
	}
	chain, dag := fig.Points[0], fig.Points[1]
	// Each row is its own fields of the record: a change to how the
	// sequential baseline runs may move "chain/…" and the notes, never "dag/…".
	checkFigure(t, fig, o)
	if chain.Label != "chain" || dag.Label != "dag" {
		t.Fatalf("labels = %q, %q", chain.Label, dag.Label)
	}
	if dag.Seconds["makespan"] >= chain.Seconds["makespan"] {
		t.Errorf("dag makespan %.2f did not beat chain %.2f",
			dag.Seconds["makespan"], chain.Seconds["makespan"])
	}
	// Both modes route intra-query intermediates through the store; only the
	// final result tables hit HDFS.
	for _, p := range fig.Points {
		if p.Seconds["saved-mb"] <= 0 {
			t.Errorf("%s: saved-mb = %v, want > 0", p.Label, p.Seconds["saved-mb"])
		}
		if p.Seconds["hdfs-mb"] <= 0 {
			t.Errorf("%s: hdfs-mb = %v, want > 0", p.Label, p.Seconds["hdfs-mb"])
		}
	}
	// The headline of the tentpole: the DAG overlapped a query's independent
	// branches; the chain never had more than one stage in flight per query.
	if chain.Seconds["max-conc"] != 1 {
		t.Errorf("chain max-conc = %v, want 1", chain.Seconds["max-conc"])
	}
	if dag.Seconds["max-conc"] < 2 {
		t.Errorf("dag max-conc = %v, want >= 2", dag.Seconds["max-conc"])
	}
}

// TestDAGQueryDeterminism: same options, same figure.
func TestDAGQueryDeterminism(t *testing.T) {
	t.Parallel()
	a, err := DAGQuery(Options{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DAGQuery(Options{Scale: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, a, Options{Scale: 0.05, Seed: 11})
	for i := range a.Points {
		for _, col := range a.Columns {
			if a.Points[i].Seconds[col] != b.Points[i].Seconds[col] {
				t.Errorf("point %d %s: %v != %v", i, col, a.Points[i].Seconds[col], b.Points[i].Seconds[col])
			}
		}
	}
}
