package workloads

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mrapid/internal/mapreduce"
)

// TestTeraSampleSelectionDeterministic: key selection must depend only on
// the key bytes (FNV hash), never on row order, so parallel host execution
// cannot perturb the sample.
func TestTeraSampleSelectionDeterministic(t *testing.T) {
	spec := TeraSampleSpec("s", []string{"/in"}, "/out", 4)
	row := func(key string) []byte {
		b := []byte(key)
		for len(b) < TeraRowLen {
			b = append(b, '.')
		}
		return b
	}
	keys := []string{"aaaaaaaaaa", "bbbbbbbbbb", "cccccccccc", "dddddddddd", "eeeeeeeeee", "ffffffffff"}
	sample := func(order []string) map[string]bool {
		var data []byte
		for _, k := range order {
			data = append(data, row(k)...)
		}
		got := map[string]bool{}
		spec.Format.Scan(data, func(k, v []byte) {
			spec.Map(k, v, func(key, _ []byte) { got[string(key)] = true })
		})
		return got
	}
	fwd := sample(keys)
	rev := sample([]string{keys[5], keys[4], keys[3], keys[2], keys[1], keys[0]})
	if len(fwd) != len(rev) {
		t.Fatalf("sample size depends on row order: %v vs %v", fwd, rev)
	}
	for k := range fwd {
		if !rev[k] {
			t.Fatalf("selection of %q depends on row order", k)
		}
	}
	// every == 1 selects everything.
	all := TeraSampleSpec("s1", []string{"/in"}, "/out", 1)
	n := 0
	for _, k := range keys {
		all.Map([]byte(k), nil, func(_, _ []byte) { n++ })
	}
	if n != len(keys) {
		t.Fatalf("every=1 selected %d of %d keys", n, len(keys))
	}
}

// TestCutPointsFromSample: weighted quantiles over a staged sample output,
// and the degenerate tail when partitions outnumber distinct keys.
func TestCutPointsFromSample(t *testing.T) {
	d, c := testDFS(t)
	// Skewed sample: "kkkk-05" carries most of the weight.
	var buf bytes.Buffer
	for i, w := range []int64{1, 2, 1, 1, 1, 20, 1, 1} {
		fmt.Fprintf(&buf, "kkkk-%02d\t%d\n", i, w)
	}
	d.PutInstant(mapreduce.PartFileName("/sample", 0), buf.Bytes(), c.Workers()[0])

	cuts, err := CutPointsFromSample(d, "/sample", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %d, want 3", len(cuts))
	}
	if !sort.SliceIsSorted(cuts, func(i, j int) bool { return bytes.Compare(cuts[i], cuts[j]) < 0 }) {
		t.Fatalf("cut points not sorted: %q", cuts)
	}
	// The heavy key absorbs the middle quantiles.
	heavy := 0
	for _, cut := range cuts {
		if string(cut) == "kkkk-05" {
			heavy++
		}
	}
	if heavy < 2 {
		t.Errorf("heavy key appears in %d of %d cut points; want the weight to dominate", heavy, len(cuts))
	}

	if _, err := CutPointsFromSample(d, "/sample", 1); err != nil {
		t.Fatalf("reduces=1: %v", err)
	}

	// Fewer distinct keys than partitions: the tail repeats the last key.
	d.PutInstant(mapreduce.PartFileName("/tiny", 0), []byte("only-key\t3\n"), c.Workers()[0])
	cuts, err = CutPointsFromSample(d, "/tiny", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("degenerate cuts = %d, want 3", len(cuts))
	}
	for _, cut := range cuts {
		if string(cut) != "only-key" {
			t.Fatalf("degenerate cut = %q", cut)
		}
	}

	// Malformed rows are rejected.
	d.PutInstant(mapreduce.PartFileName("/bad", 0), []byte("no-tab-here\n"), c.Workers()[0])
	if _, err := CutPointsFromSample(d, "/bad", 2); err == nil {
		t.Error("malformed sample accepted")
	}
}

// TestTeraSampleToSortPipeline: the sample job's output yields cut points
// that partition a TeraSort into a valid total order, end to end through
// the pure executors.
func TestTeraSampleToSortPipeline(t *testing.T) {
	d, c := testDFS(t)
	const rows = 400
	names, err := TeraGen(d, c, "/in/tsp", TeraGenConfig{Rows: rows, Files: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: the sampling job, run through the pure executors with the
	// combiner applied per map (as a real task would).
	sample := TeraSampleSpec("sample", names, "/sample", 3)
	var sampleOuts []*mapreduce.MapOutput
	for _, name := range names {
		data, err := d.Contents(name)
		if err != nil {
			t.Fatal(err)
		}
		sampleOuts = append(sampleOuts, mapreduce.ExecMap(sample, data))
	}
	d.PutInstant(mapreduce.PartFileName("/sample", 0), mapreduce.ExecReduce(sample, 0, sampleOuts).Encoded, c.Workers()[0])

	// Stage 2: cut points from the sample, then the sort.
	const reduces = 4
	cuts, err := CutPointsFromSample(d, "/sample", reduces)
	if err != nil {
		t.Fatal(err)
	}
	sortSpec := TeraSortSpecFromCuts("tsort", names, "/out/tsp", reduces, cuts)
	var sortOuts []*mapreduce.MapOutput
	for _, name := range names {
		data, err := d.Contents(name)
		if err != nil {
			t.Fatal(err)
		}
		sortOuts = append(sortOuts, mapreduce.ExecMap(sortSpec, data))
	}
	var counted int64
	var prev []byte
	for p := 0; p < reduces; p++ {
		// Fixed-width lines: key, tab, value, newline.
		const line = TeraKeyLen + 1 + TeraValueLen + 1
		for out := mapreduce.ExecReduce(sortSpec, p, sortOuts).Encoded; len(out) >= line; out = out[line:] {
			key := out[:TeraKeyLen]
			if prev != nil && bytes.Compare(prev, key) > 0 {
				t.Fatalf("partition %d breaks the total order: %q > %q", p, prev, key)
			}
			prev = append(prev[:0], key...)
			counted++
		}
	}
	if counted != rows {
		t.Fatalf("sorted %d rows, want %d", counted, rows)
	}
}
