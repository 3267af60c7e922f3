package workloads

import (
	"bytes"
	"strings"
	"testing"

	"mrapid/internal/mapreduce"
)

func TestGrepSearchMapFiltersAndCounts(t *testing.T) {
	spec := GrepSearchSpec("g", []string{"/in"}, "/out", "err")
	got := map[string]int{}
	mapreduce.LineFormat{}.Scan([]byte("error noise err again\nerrand clean\n"), func(k, v []byte) {
		spec.Map(k, v, func(key, _ []byte) { got[string(key)]++ })
	})
	want := map[string]int{"error": 1, "err": 1, "errand": 1}
	if len(got) != len(want) {
		t.Fatalf("matches = %v", got)
	}
	for k := range want {
		if got[k] != 1 {
			t.Fatalf("missing match %q", k)
		}
	}
}

func TestGrepSortSpecOrdersDescending(t *testing.T) {
	spec := GrepSortSpec("gs", []string{"/x"}, "/out")
	// Feed it the search job's output format: word TAB count lines.
	input := []byte("apple\t3\nzebra\t10\nmid\t7\n")
	mo := mapreduce.ExecMap(spec, input)
	out := mapreduce.ExecReduce(spec, 0, []*mapreduce.MapOutput{mo})
	var counts []string
	var words []string
	for _, line := range strings.Split(strings.TrimSuffix(string(out.Encoded), "\n"), "\n") {
		count, word, _ := strings.Cut(line, "\t")
		counts = append(counts, count)
		words = append(words, word)
	}
	if strings.Join(words, ",") != "zebra,mid,apple" {
		t.Fatalf("order = %v (%v)", words, counts)
	}
}

func TestGrepEndToEndChained(t *testing.T) {
	d, c := testDFS(t)
	// Synthetic corpus with known pattern frequencies.
	text := bytes.Repeat([]byte("alpha beta request-a request-b request-a\nplain words here\n"), 500)
	d.PutInstant("/in/grep/part-0", text, c.Workers()[0])
	d.PutInstant("/in/grep/part-1", bytes.Repeat([]byte("request-c request-a\n"), 300), c.Workers()[1])

	// This unit test drives the two jobs' functions directly (the
	// submission-path integration is covered by the core/bench tests).
	search := GrepSearchSpec("gsearch", []string{"/in/grep/part-0", "/in/grep/part-1"}, "/grep/tmp", "request")
	var outputs []*mapreduce.MapOutput
	for _, f := range []string{"/in/grep/part-0", "/in/grep/part-1"} {
		data, _ := d.Contents(f)
		outputs = append(outputs, mapreduce.ExecMap(search, data))
	}
	searchOut := mapreduce.EncodePairs(mapreduce.ExecReduce(search, 0, outputs))
	d.PutInstant("/grep/tmp/part-00000", searchOut, c.Workers()[0])

	sortSpec := GrepSortSpec("gsort", []string{"/grep/tmp/part-00000"}, "/grep/out")
	data, _ := d.Contents("/grep/tmp/part-00000")
	sorted := mapreduce.ExecReduce(sortSpec, 0, []*mapreduce.MapOutput{mapreduce.ExecMap(sortSpec, data)})
	d.PutInstant("/grep/out/part-00000", mapreduce.EncodePairs(sorted), c.Workers()[0])

	matches, err := ParseGrepOutput(d, "/grep/out")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"request-a": 1300, "request-b": 500, "request-c": 300}
	if len(matches) != len(want) {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Word != "request-a" || matches[0].Count != 1300 {
		t.Fatalf("top match = %+v", matches[0])
	}
	for _, m := range matches {
		if want[m.Word] != m.Count {
			t.Fatalf("count[%s] = %d, want %d", m.Word, m.Count, want[m.Word])
		}
	}
}

func TestParseGrepOutputRejectsGarbage(t *testing.T) {
	d, c := testDFS(t)
	d.PutInstant("/bad/part-00000", []byte("notanumber\tword\n"), c.Workers()[0])
	if _, err := ParseGrepOutput(d, "/bad"); err == nil {
		t.Fatal("garbage accepted")
	}
	d.PutInstant("/asc/part-00000", []byte("1\ta\n5\tb\n"), c.Workers()[0])
	if _, err := ParseGrepOutput(d, "/asc"); err == nil {
		t.Fatal("ascending output accepted")
	}
}
