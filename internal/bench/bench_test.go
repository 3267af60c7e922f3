package bench

import (
	"fmt"
	"strings"
	"testing"
)

// testOpts shrinks the inputs ~8× so the full pipeline still runs (same
// code paths, same mechanisms) at unit-test speed. Assertions below only
// check scale-robust properties: MRapid modes beating their stock
// counterparts, monotone ablation stacks, and structural integrity.
func testOpts() Options { return Options{Scale: 0.125, Seed: 1} }

func requireColumns(t *testing.T, f *Figure, cols ...string) {
	t.Helper()
	for _, c := range cols {
		found := false
		for _, have := range f.Columns {
			if have == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s missing column %q (have %v)", f.ID, c, f.Columns)
		}
	}
	for i, p := range f.Points {
		for _, c := range f.Columns {
			v, ok := p.Seconds[c]
			if !ok || v <= 0 {
				t.Fatalf("%s point %d column %q = %v", f.ID, i, c, v)
			}
		}
	}
}

func TestTableII(t *testing.T) {
	t.Parallel()
	fig, err := TableII(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	if len(fig.Points) != 3 {
		t.Fatalf("rows = %d", len(fig.Points))
	}
	if fig.Points[2].Label != "A3" || fig.Points[2].Seconds["cores"] != 4 {
		t.Fatalf("A3 row wrong: %+v", fig.Points[2])
	}
}

func TestFig7Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	if len(fig.Points) != 5 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	for i, p := range fig.Points {
		if fig.Improvement(i, "hadoop", "dplus") <= 0 {
			t.Errorf("at %s files D+ (%.2fs) not faster than hadoop (%.2fs)",
				p.Label, fig.Get(i, "dplus"), fig.Get(i, "hadoop"))
		}
		if fig.Improvement(i, "uber", "uplus") <= 0 {
			t.Errorf("at %s files U+ (%.2fs) not faster than uber (%.2fs)",
				p.Label, fig.Get(i, "uplus"), fig.Get(i, "uber"))
		}
	}
	// Times grow with input size in every mode.
	for _, c := range fig.Columns {
		if fig.Get(4, c) <= fig.Get(0, c) {
			t.Errorf("%s did not grow from 1 to 16 files (%.2f → %.2f)",
				c, fig.Get(0, c), fig.Get(4, c))
		}
	}
	// Stock uber degrades fastest with file count: its sequential execution
	// adds the full per-map cost 16 times, while U+ overlaps maps and D+
	// spreads them. Compare absolute growth from 1 to 16 files.
	uberGrowth := fig.Get(4, "uber") - fig.Get(0, "uber")
	uplusGrowth := fig.Get(4, "uplus") - fig.Get(0, "uplus")
	if uberGrowth <= uplusGrowth {
		t.Errorf("uber grew %.2fs over the sweep, U+ %.2fs — sequential uber should degrade faster",
			uberGrowth, uplusGrowth)
	}
}

func TestFig8Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	// D+'s absolute gain over stock Hadoop grows with file size (the
	// paper's "D+ gains more on larger file size").
	firstGain := fig.Get(0, "hadoop") - fig.Get(0, "dplus")
	lastGain := fig.Get(len(fig.Points)-1, "hadoop") - fig.Get(len(fig.Points)-1, "dplus")
	if lastGain <= firstGain*0.8 {
		t.Errorf("D+ gain shrank with file size: %.2fs → %.2fs", firstGain, lastGain)
	}
}

func TestFig9Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig9(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	// With total input fixed, more files (more parallelism) never hurts
	// the parallel modes: 4 splits beat 2 splits for D+ and U+.
	for _, c := range []string{"dplus", "uplus"} {
		if fig.Get(2, c) > fig.Get(0, c)*1.05 {
			t.Errorf("%s slower with more parallelism: 2 files %.2fs, 4 files %.2fs",
				c, fig.Get(0, c), fig.Get(2, c))
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig10(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	// TeraSort: U+ beats D+ throughout (the paper's "U+ is always better
	// than the D+ mode" for this I/O-light, shuffle-heavy job).
	for i, p := range fig.Points {
		if fig.Get(i, "uplus") >= fig.Get(i, "dplus") {
			t.Errorf("at %s rows U+ (%.2fs) not faster than D+ (%.2fs)",
				p.Label, fig.Get(i, "uplus"), fig.Get(i, "dplus"))
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig11(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	n := len(fig.Points)
	// PI: at small sample counts stock-uber beats stock-distributed (no
	// launch overhead); at large counts stock-distributed wins (parallel
	// compute) — the paper's crossover.
	if fig.Get(0, "uber") >= fig.Get(0, "hadoop") {
		t.Errorf("small PI: uber (%.2fs) should beat hadoop (%.2fs)",
			fig.Get(0, "uber"), fig.Get(0, "hadoop"))
	}
	if fig.Get(n-1, "hadoop") >= fig.Get(n-1, "uber") {
		t.Errorf("large PI: hadoop (%.2fs) should beat sequential uber (%.2fs)",
			fig.Get(n-1, "hadoop"), fig.Get(n-1, "uber"))
	}
	// U+ stays the best MRapid mode across the sweep (4 maps fit one wave).
	for i, p := range fig.Points {
		if fig.Get(i, "uplus") > fig.Get(i, "dplus") {
			t.Errorf("at %s U+ (%.2fs) worse than D+ (%.2fs)",
				p.Label, fig.Get(i, "uplus"), fig.Get(i, "dplus"))
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig12(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "hadoop", "uber", "dplus", "uplus")
	// Stock Hadoop degrades (or at worst stays flat, below the 1 s client
	// poll quantum at small test scales) when two containers share a core;
	// MRapid's modes never fluctuate more than it does — U+ uses a single
	// container and D+ picks idle nodes. The full-scale degradation is
	// recorded in EXPERIMENTS.md.
	hadoopDelta := fig.Get(1, "hadoop") - fig.Get(0, "hadoop")
	uplusDelta := fig.Get(1, "uplus") - fig.Get(0, "uplus")
	if hadoopDelta < 0 {
		t.Errorf("hadoop improved at 2 containers/core: %.2fs → %.2fs",
			fig.Get(0, "hadoop"), fig.Get(1, "hadoop"))
	}
	if uplusDelta > hadoopDelta {
		t.Errorf("U+ fluctuated more than stock hadoop (%.2fs vs %.2fs)", uplusDelta, hadoopDelta)
	}
}

func TestFig13Shapes(t *testing.T) {
	t.Parallel()
	fig, err := Fig13(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	requireColumns(t, fig, "dplus@A2x10", "dplus@A3x5", "uplus@A2x10", "uplus@A3x5")
	// U+ always prefers the fatter A3 nodes (more cores, faster disk).
	for i, p := range fig.Points {
		if fig.Get(i, "uplus@A3x5") >= fig.Get(i, "uplus@A2x10") {
			t.Errorf("at %s files U+ on A3 (%.2fs) not faster than on A2 (%.2fs)",
				p.Label, fig.Get(i, "uplus@A3x5"), fig.Get(i, "uplus@A2x10"))
		}
	}
	// D+ prefers A3 when the job is small.
	if fig.Get(0, "dplus@A3x5") >= fig.Get(0, "dplus@A2x10") {
		t.Errorf("1 file: D+ on A3 (%.2fs) not faster than on A2 (%.2fs)",
			fig.Get(0, "dplus@A3x5"), fig.Get(0, "dplus@A2x10"))
	}
}

func TestFig14StackMonotone(t *testing.T) {
	t.Parallel()
	fig, err := Fig14(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	if len(fig.Points) != 5 {
		t.Fatalf("stack steps = %d", len(fig.Points))
	}
	for i := 1; i < len(fig.Points); i++ {
		prev := fig.Points[i-1].Seconds["elapsed"]
		cur := fig.Points[i].Seconds["elapsed"]
		if cur > prev*1.02 { // each optimization must not hurt
			t.Errorf("step %s regressed: %.2fs → %.2fs", fig.Points[i].Label, prev, cur)
		}
	}
	base := fig.Points[0].Seconds["elapsed"]
	final := fig.Points[len(fig.Points)-1].Seconds["elapsed"]
	if final >= base {
		t.Fatalf("full D+ stack (%.2fs) not faster than stock (%.2fs)", final, base)
	}
	if len(fig.Notes) == 0 {
		t.Fatal("no contribution notes")
	}
}

func TestFig15StackMonotone(t *testing.T) {
	t.Parallel()
	fig, err := Fig15(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	if len(fig.Points) != 5 {
		t.Fatalf("stack steps = %d", len(fig.Points))
	}
	for i := 1; i < len(fig.Points); i++ {
		prev := fig.Points[i-1].Seconds["elapsed"]
		cur := fig.Points[i].Seconds["elapsed"]
		if cur > prev*1.02 {
			t.Errorf("step %s regressed: %.2fs → %.2fs", fig.Points[i].Label, prev, cur)
		}
	}
	// Parallelism is the dominant U+ contribution (the paper's 64%).
	base := fig.Points[0].Seconds["elapsed"]
	afterParallel := fig.Points[1].Seconds["elapsed"]
	final := fig.Points[len(fig.Points)-1].Seconds["elapsed"]
	total := base - final
	if total <= 0 {
		t.Fatalf("no net improvement: %.2fs → %.2fs", base, final)
	}
	// At the paper's scale parallelism contributes ~64%; at the shrunken
	// test scale the per-map compute shrinks while the fixed AM costs do
	// not, so only require a substantial share here. The full-scale split
	// is recorded in EXPERIMENTS.md.
	if (base-afterParallel)/total < 0.15 {
		t.Errorf("parallelism contributed only %.0f%%, expected a substantial share",
			(base-afterParallel)/total*100)
	}
}

func TestEstimatorExperiment(t *testing.T) {
	t.Parallel()
	fig, err := EstimatorAccuracy(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, testOpts())
	if len(fig.Points) != 5 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Every column but regret is a positive time; regret is never negative
	// and is exactly zero where the race's verdict was the faster mode.
	matched := 0
	for i, p := range fig.Points {
		for _, c := range []string{"dplus-measured", "uplus-measured", "speculative", "dplus-estimate", "uplus-estimate"} {
			if p.Seconds[c] <= 0 {
				t.Fatalf("point %s column %q = %v", p.Label, c, p.Seconds[c])
			}
		}
		regret, ok := p.Seconds["regret"]
		if !ok || regret < 0 {
			t.Fatalf("point %s regret = %v (present %v)", p.Label, regret, ok)
		}
		best := min(fig.Get(i, "dplus-measured"), fig.Get(i, "uplus-measured"))
		missed := false
		for _, n := range fig.Notes {
			missed = missed || strings.HasPrefix(n, p.Label+" files: the race picked")
		}
		if !missed {
			matched++
			if regret != 0 {
				t.Errorf("point %s: the verdict matched but regret = %v", p.Label, regret)
			}
		} else if regret != max(fig.Get(i, "dplus-measured"), fig.Get(i, "uplus-measured"))-best {
			t.Errorf("point %s: regret %v is not the gap between the modes", p.Label, regret)
		}
	}
	// The decision maker must be right most of the time; it is allowed to
	// miss near crossovers (Eq. 2 ignores cache-overflow spills).
	var correct int
	for _, n := range fig.Notes {
		if _, err := fmt.Sscanf(n, "decision matched the measured winner at %d/5", &correct); err == nil {
			break
		}
	}
	if correct != matched {
		t.Errorf("notes count %d matched verdicts, the points %d", correct, matched)
	}
	if correct < 3 {
		t.Fatalf("estimator matched only %d/5 decisions", correct)
	}
	// Estimates scale with the sweep: U+'s estimate grows once waves exceed
	// one (8→16 files doubles the waves).
	if fig.Get(4, "uplus-estimate") <= fig.Get(0, "uplus-estimate") {
		t.Error("U+ estimate did not grow across the sweep")
	}
}

func TestRegistryAndLookup(t *testing.T) {
	t.Parallel()
	want := []string{"table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "estimator", "phases", "throughput", "shuffle", "dagquery", "memo"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries", len(Registry))
	}
	for i, id := range want {
		if Registry[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, Registry[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown ID succeeded")
	}
}

// ByCost ranks every registered experiment exactly once.
func TestByCostRanksEveryExperiment(t *testing.T) {
	t.Parallel()
	ranked := map[string]int{}
	for _, id := range ByCost {
		ranked[id]++
	}
	for _, r := range Registry {
		if ranked[r.ID] != 1 {
			t.Errorf("ByCost ranks %s %d times, want once", r.ID, ranked[r.ID])
		}
		delete(ranked, r.ID)
	}
	for id := range ranked {
		t.Errorf("ByCost ranks %s, which is not registered", id)
	}
}

func TestRenderTable(t *testing.T) {
	t.Parallel()
	fig := &Figure{
		ID: "figX", Title: "demo", XLabel: "x",
		Columns: []string{"hadoop", "uber", "dplus", "uplus"},
		Points: []Point{
			{X: 1, Label: "1", Seconds: map[string]float64{"hadoop": 10, "uber": 8, "dplus": 6, "uplus": 4}},
		},
		Notes: []string{"a note"},
	}
	var b strings.Builder
	if err := Render(&b, fig); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"FIGX", "hadoop", "10.00", "improvements:", "40.0%", "60.0%", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestEnvRejectsBadSetup(t *testing.T) {
	t.Parallel()
	setup := A3x4()
	setup.Workers = 0
	if _, err := NewEnv(setup, VariantHadoop()); err == nil {
		t.Fatal("zero-worker setup accepted")
	}
	setup = A3x4()
	setup.Params.Replication = 0
	if _, err := NewEnv(setup, VariantHadoop()); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestDeterministicFigure(t *testing.T) {
	t.Parallel()
	a, err := Fig9(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, a, Options{Scale: 0.05, Seed: 3})
	for i := range a.Points {
		for _, c := range a.Columns {
			if a.Points[i].Seconds[c] != b.Points[i].Seconds[c] {
				t.Fatalf("nondeterministic: %s %s %v vs %v", a.Points[i].Label, c,
					a.Points[i].Seconds[c], b.Points[i].Seconds[c])
			}
		}
	}
}
