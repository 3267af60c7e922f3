package workloads

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/pin"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

func testDFS(t *testing.T) (*hdfs.DFS, *topology.Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := costmodel.Default()
	return hdfs.New(eng, c, p.HDFSBlockBytes, p.Replication, 99), c
}

func TestCorpusDeterministic(t *testing.T) {
	a := NewCorpus(1000, 7).Generate(10_000)
	b := NewCorpus(1000, 7).Generate(10_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	c := NewCorpus(1000, 8).Generate(10_000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestCorpusShape(t *testing.T) {
	data := NewCorpus(500, 1).Generate(5000)
	if int64(len(data)) < 5000 {
		t.Fatalf("generated %d bytes, want ≥ 5000", len(data))
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("corpus does not end at a line boundary")
	}
	words := bytes.Fields(data)
	if len(words) < 500 {
		t.Fatalf("only %d words", len(words))
	}
	distinct := map[string]bool{}
	for _, w := range words {
		distinct[string(w)] = true
	}
	if len(distinct) < 50 || len(distinct) > 500 {
		t.Fatalf("distinct words = %d, want within vocabulary bounds", len(distinct))
	}
}

// Property: parse(encode(counts)) round-trips through the job output format.
func TestQuickWordCountOutputRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var encoded []byte
		want := map[string]int{}
		for i, w := range words {
			if w == "" || bytes.ContainsAny([]byte(w), "\t\n") {
				continue
			}
			encoded = append(encoded, w+"\t"+strconv.Itoa(i+1)+"\n"...)
			want[w] = i + 1
		}
		got, err := ParseWordCountOutput(encoded)
		if err != nil {
			return false
		}
		if len(got) > len(want) {
			return false
		}
		for k, v := range got {
			if want[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountWordsAgainstMapReduceFunctions(t *testing.T) {
	data := []byte("a b a\nc b a\n")
	want := CountWords(data)
	// Drive the map and reduce functions directly.
	byKey := map[string][][]byte{}
	mapreduce.LineFormat{}.Scan(data, func(k, v []byte) {
		wordCountMap(k, v, func(key, val []byte) {
			byKey[string(key)] = append(byKey[string(key)], val)
		})
	})
	got := map[string]int{}
	for k, vs := range byKey {
		wordCountReduce([]byte(k), vs, func(key, val []byte) {
			n, _ := strconv.Atoi(string(val))
			got[string(key)] = n
		})
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestGenerateWordCountInput(t *testing.T) {
	d, c := testDFS(t)
	names, err := GenerateWordCountInput(d, c, "/in/wc", WordCountConfig{Files: 3, FileBytes: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("files = %d", len(names))
	}
	for _, n := range names {
		f, err := d.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() < 2000 {
			t.Errorf("%s size = %d", n, f.Size())
		}
	}
	if _, err := GenerateWordCountInput(d, c, "/bad", WordCountConfig{Files: 0, FileBytes: 10}); err == nil {
		t.Fatal("zero files did not error")
	}
}

func TestWordCountSpecValid(t *testing.T) {
	spec := WordCountSpec("wc", []string{"/in"}, "/out", true)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Combine == nil {
		t.Fatal("combiner not set")
	}
	if spec.JobKey != "wordcount" {
		t.Fatalf("JobKey = %q", spec.JobKey)
	}
}

func TestTeraGenGeometry(t *testing.T) {
	d, c := testDFS(t)
	names, err := TeraGen(d, c, "/in/ts", TeraGenConfig{Rows: 1000, Files: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("files = %d", len(names))
	}
	var total int64
	for _, n := range names {
		f, _ := d.Lookup(n)
		if f.Size()%TeraRowLen != 0 {
			t.Errorf("%s size %d not a multiple of the row length", n, f.Size())
		}
		total += f.Size() / TeraRowLen
	}
	if total != 1000 {
		t.Fatalf("total rows = %d", total)
	}
}

func TestTeraGenDeterministic(t *testing.T) {
	d1, c1 := testDFS(t)
	d2, c2 := testDFS(t)
	names, _ := TeraGen(d1, c1, "/a", TeraGenConfig{Rows: 100, Files: 2, Seed: 9})
	TeraGen(d2, c2, "/a", TeraGenConfig{Rows: 100, Files: 2, Seed: 9})
	b1, _ := d1.Contents("/a/part-00000")
	b2, _ := d2.Contents("/a/part-00000")
	if !bytes.Equal(b1, b2) {
		t.Fatal("teragen not deterministic")
	}
	var files [][]byte
	for _, n := range names {
		b, _ := d1.Contents(n)
		files = append(files, b)
	}
	pin.Check(t, "teragen rows=100 files=2 seed=9", pin.Record{"output": pin.Digest(files...)})
}

func TestTotalOrderPartitioner(t *testing.T) {
	cuts := [][]byte{[]byte("ggg"), []byte("ppp")}
	part := totalOrderPartitioner(cuts)
	cases := []struct {
		key  string
		want int
	}{
		{"aaa", 0}, {"gga", 0}, {"ggg", 1}, {"mmm", 1}, {"ppp", 2}, {"zzz", 2},
	}
	for _, c := range cases {
		if got := part([]byte(c.key), 3); got != c.want {
			t.Errorf("partition(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// No cuts → everything to partition 0.
	if totalOrderPartitioner(nil)([]byte("x"), 1) != 0 {
		t.Error("nil cuts should map to 0")
	}
}

// Property: the total-order partitioner is monotone — sorted keys map to
// nondecreasing partitions.
func TestQuickTotalOrderMonotone(t *testing.T) {
	f := func(keys [][]byte, c1, c2 []byte) bool {
		cuts := [][]byte{c1, c2}
		if bytes.Compare(c1, c2) > 0 {
			cuts = [][]byte{c2, c1}
		}
		part := totalOrderPartitioner(cuts)
		sorted := make([][]byte, len(keys))
		copy(sorted, keys)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && bytes.Compare(sorted[j], sorted[j-1]) < 0; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		prev := -1
		for _, k := range sorted {
			p := part(k, 3)
			if p < prev || p < 0 || p > 2 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTeraSortSpecSampling(t *testing.T) {
	d, c := testDFS(t)
	names, _ := TeraGen(d, c, "/in/ts", TeraGenConfig{Rows: 3000, Files: 3, Seed: 11})
	spec, err := TeraSortSpec(d, "ts", names, "/out/ts", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// The sampled partitioner should split uniform random keys roughly
	// evenly: run all keys through it.
	counts := make([]int, 3)
	for _, n := range names {
		data, _ := d.Contents(n)
		mapreduce.FixedFormat{KeyLen: TeraKeyLen, ValLen: TeraValueLen}.Scan(data, func(k, _ []byte) {
			counts[spec.Partition(k, 3)]++
		})
	}
	for p, n := range counts {
		if n < 500 || n > 1500 {
			t.Errorf("partition %d got %d of 3000 keys — sampling badly skewed", p, n)
		}
	}
}

func TestPiInputAndControlParsing(t *testing.T) {
	d, c := testDFS(t)
	names, err := GeneratePiInput(d, c, "/in/pi", PiConfig{Maps: 4, Samples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("files = %d", len(names))
	}
	data, _ := d.Contents(names[2])
	off, n, err := parsePiLine(data)
	if err != nil {
		t.Fatal(err)
	}
	if off != 2000 || n != 1000 {
		t.Fatalf("control = (%d,%d), want (2000,1000)", off, n)
	}
	if _, _, err := parsePiLine([]byte("garbage")); err == nil {
		t.Fatal("malformed control did not error")
	}
}

func TestHaltonUniformity(t *testing.T) {
	// The Halton estimate of π converges quickly; 50k points should be
	// within 1e-2.
	h := newHalton(0)
	var inside int64
	const n = 50_000
	for i := 0; i < n; i++ {
		x, y := h.next()
		if x < 0 || x >= 1 || y < 0 || y >= 1 {
			t.Fatalf("halton point out of unit square: (%v,%v)", x, y)
		}
		dx, dy := x-0.5, y-0.5
		if dx*dx+dy*dy <= 0.25 {
			inside++
		}
	}
	got := 4 * float64(inside) / n
	if math.Abs(got-math.Pi) > 0.01 {
		t.Fatalf("halton pi estimate = %v", got)
	}
}

func TestPiMapScalesVirtualSamples(t *testing.T) {
	var values [][]byte
	piMap(nil, []byte("0,100000000"), func(_, v []byte) { values = append(values, v) })
	if len(values) != 2 {
		t.Fatalf("pi map emitted %d pairs", len(values))
	}
	var total int64
	for _, v := range values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 100000000 {
		t.Fatalf("scaled counts sum to %d, want the full virtual sample count", total)
	}
}

func TestRadicalInverseKnownValues(t *testing.T) {
	cases := []struct {
		n, b int64
		want float64
	}{
		{1, 2, 0.5}, {2, 2, 0.25}, {3, 2, 0.75}, {1, 3, 1.0 / 3}, {2, 3, 2.0 / 3},
	}
	for _, c := range cases {
		if got := radicalInverse(c.n, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("radicalInverse(%d,%d) = %v, want %v", c.n, c.b, got, c.want)
		}
	}
}

// The corpus bytes are what every WordCount figure, pinned run and
// benchmark digest is computed over: pinned so that a change to how
// NewCorpus builds its vocabulary (30 000 words redraw several hundred
// duplicates) or to the order it draws from its source cannot move them
// unnoticed.
func TestCorpusPinned(t *testing.T) {
	for _, c := range []struct {
		vocab int
		seed  int64
		size  int64
	}{
		{30000, 1, 1 << 20},
		{500, 42, 64 << 10},
	} {
		pin.Check(t, fmt.Sprintf("corpus vocab=%d seed=%d size=%d", c.vocab, c.seed, c.size),
			pin.Record{"output": pin.Digest(NewCorpus(c.vocab, c.seed).Generate(c.size))})
	}
}

// The reducer sums one-digit counts without parsing, takes totals below
// 1000 from the shared table and the rest from strconv, allocates for
// neither of the first two, and still refuses a count that is no number.
func TestWordCountReduceFastPaths(t *testing.T) {
	reduce := func(values ...string) (text string) {
		vs := make([][]byte, len(values))
		for i, v := range values {
			vs[i] = []byte(v)
		}
		wordCountReduce([]byte("w"), vs, func(_, v []byte) { text = string(v) })
		return text
	}
	for _, c := range []struct {
		values []string
		want   string
	}{
		{nil, "0"},
		{[]string{"1", "1", "1"}, "3"},
		{[]string{"9", "990"}, "999"},
		{[]string{"9", "991"}, "1000"},
		{[]string{"123456", "7", "-7"}, "123456"},
		{[]string{"-5", "2"}, "-3"},
	} {
		if got := reduce(c.values...); got != c.want {
			t.Errorf("reduce%q = %q, want %q", c.values, got, c.want)
		}
	}
	for _, bad := range []string{"x", "", "1x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("count %q did not panic", bad)
				}
			}()
			reduce("1", bad)
		}()
	}
	key, ones := []byte("w"), [][]byte{one, one, one, []byte("42")}
	emit := func(_, _ []byte) {}
	if n := testing.AllocsPerRun(100, func() { wordCountReduce(key, ones, emit) }); n != 0 {
		t.Errorf("a reduce inside the table allocates %v times", n)
	}
}
