package workloads

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// A vocabulary must have a word, and no more words than a packed entry's
// offset can address.
func TestNewCorpusRejectsVocabularyOutOfRange(t *testing.T) {
	for _, size := range []int{0, -1, maxVocab + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCorpus(%d, 1) did not panic", size)
				}
			}()
			NewCorpus(size, 1)
		}()
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
	// Drive the split function, its flush and the reduce directly.
	byKey := map[string][][]byte{}
	runs := map[string][]int{}
	mapFn, flush := wordCountSplit("", nil)
	mapreduce.LineFormat{}.Scan(data, func(k, v []byte) {
		mapFn(k, v, func([]byte, []byte) { t.Fatal("a split of three words overflowed the word table") })
	})
	flush(func(key, val []byte, n int) {
		byKey[string(key)] = append(byKey[string(key)], val)
		runs[string(key)] = append(runs[string(key)], n)
	})
	got := map[string]int{}
	for k, vs := range byKey {
		// One run per counted pair, as the merge hands them over.
		wordCountReduce([]byte(k), mapreduce.NewValues(vs, runs[k]), func(key, val []byte) {
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

// A vocabulary NewCorpus cannot build fails the one input, with an error
// rather than NewCorpus's panic, and caches nothing for it.
func TestGenerateWordCountInputRejectsVocabularyOutOfRange(t *testing.T) {
	d, c := testDFS(t)
	for _, vocab := range []int{-1, maxVocab + 1} {
		cfg := WordCountConfig{Files: 1, FileBytes: 100, VocabSize: vocab, Seed: 1}
		if _, err := GenerateWordCountInput(d, c, "/bad", cfg); err == nil {
			t.Errorf("vocabulary %d did not error", vocab)
		}
		streamMu.Lock()
		_, cached := streamCache[streamKey{vocab, 1}]
		streamMu.Unlock()
		if cached {
			t.Errorf("vocabulary %d left a stream cache entry", vocab)
		}
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

// What tera_modes stages — 100k and 500k rows in four files at seeds 1
// and 2 — and a row count the files do not divide, whose last file takes
// the remainder. Every key byte is a draw, so a generator that drew one
// byte differently, or in another order, moves these.
func TestTeraGenPinned(t *testing.T) {
	for _, cfg := range []TeraGenConfig{
		{Rows: 100_000, Files: 4, Seed: 1},
		{Rows: 500_000, Files: 4, Seed: 1},
		{Rows: 100_000, Files: 4, Seed: 2},
		{Rows: 500_000, Files: 4, Seed: 2},
		{Rows: 1003, Files: 4, Seed: 1},
	} {
		files, err := TeraRows(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pin.Check(t, fmt.Sprintf("teragen rows=%d files=%d seed=%d", cfg.Rows, cfg.Files, cfg.Seed),
			pin.Record{"output": pin.Digest(files...)})
	}
}

// The written-out draw is rand.Intn(95)'s: over many seeds and long runs,
// the key bytes of TeraRows' files, row by row and file after file, are
// ' ' + Intn(95) from a source of the same seed, and each payload is the
// row's ordinal as %022d prints it, then dots. A chosen draw then checks
// the bound the rare redraw hangs on: Intn takes teraKeyMax as it is and
// redraws one above it.
func TestTeraKeysAreIntnDraws(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		cfg := TeraGenConfig{Rows: 5000 + 37*seed, Files: 3, Seed: 1<<40 + seed}
		files, err := TeraRows(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(cfg.Seed))
		var row int
		for i, f := range files {
			for r := f; len(r) > 0; r = r[TeraRowLen:] {
				for k := range TeraKeyLen {
					if want := byte(' ' + ref.Intn(95)); r[k] != want {
						t.Fatalf("seed %d file %d row %d: key byte %d is %q, Intn drew %q", cfg.Seed, i, row, k, r[k], want)
					}
				}
				want := fmt.Sprintf("%022d", row) + strings.Repeat(".", TeraValueLen-teraOrdinalLen)
				if string(r[TeraKeyLen:TeraRowLen]) != want {
					t.Fatalf("seed %d row %d: payload %q, want %q", cfg.Seed, row, r[TeraKeyLen:TeraRowLen], want)
				}
				row++
			}
		}
	}
	for _, c := range []struct {
		top         int32 // Int63's top 31 bits on the first draw; the second's are 7
		want, draws int
	}{{0, 0, 1}, {teraKeyMax, int(teraKeyMax % teraKeyBytes), 1}, {teraKeyMax + 1, 7, 2}, {math.MaxInt32, 7, 2}} {
		src := &scripted{}
		src.start(int64(c.top) << 32)
		src.queue = append(src.queue, 7<<32)
		if got := rand.New(src).Intn(teraKeyBytes); got != c.want || src.calls != c.draws {
			t.Errorf("first draw %d: Intn(95) = %d after %d draws, want %d after %d", c.top, got, src.calls, c.want, c.draws)
		}
	}
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

// TestVerifyTeraSortOutput: the in-place line walk counts rows across part
// files, the last one with or without a trailing newline, compares keys
// across a part-file boundary, and names malformed and unordered rows.
func TestVerifyTeraSortOutput(t *testing.T) {
	row := func(k string) string { return k + "\tvalue\n" }
	cases := []struct {
		name  string
		parts []string
		rows  int64
		err   string
	}{
		{"ordered", []string{row("aaaaaaaaaa") + row("bbbbbbbbbb"), row("bbbbbbbbbb") + "cccccccccc\tlast"}, 4, ""},
		{"count", []string{row("aaaaaaaaaa"), row("bbbbbbbbbb")}, 3, "has 2 rows, want 3"},
		{"across parts", []string{row("bbbbbbbbbb"), row("aaaaaaaaaa")}, 2, "out of order"},
		{"within a part", []string{row("bbbbbbbbbb") + row("aaaaaaaaaa"), ""}, 2, "out of order"},
		{"malformed", []string{row("short"), ""}, 1, "malformed terasort row"},
	}
	for _, c := range cases {
		d, _ := testDFS(t)
		for p, data := range c.parts {
			if _, err := d.PutInstant(mapreduce.PartFileName("/out", p), []byte(data), nil); err != nil {
				t.Fatal(err)
			}
		}
		err := VerifyTeraSortOutput(d, "/out", len(c.parts), c.rows)
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%s: VerifyTeraSortOutput = %v, want %q", c.name, err, c.err)
		}
	}
}

// verifyConcatenated is VerifyTeraSortOutput as it was before it walked
// blocks: each part file concatenated by DFS.Contents, then walked line by
// line. The block walk must return exactly its errors.
func verifyConcatenated(dfs *hdfs.DFS, output string, reduces int, rows int64) error {
	var prev []byte
	var count int64
	for p := 0; p < reduces; p++ {
		data, err := dfs.Contents(mapreduce.PartFileName(output, p))
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			i := bytes.IndexByte(line, '\t')
			if i != TeraKeyLen {
				return fmt.Errorf("workloads: malformed terasort row %q", line)
			}
			if prev != nil && bytes.Compare(prev, line[:i]) > 0 {
				return fmt.Errorf("workloads: terasort output out of order: %q > %q", prev, line[:i])
			}
			prev = line[:i]
			count++
		}
	}
	if count != rows {
		return fmt.Errorf("workloads: terasort output has %d rows, want %d", count, rows)
	}
	return nil
}

// VerifyTeraSortOutput walks a part file block by block: on 16-byte blocks,
// each 17-byte row straddles a boundary, some over three blocks, and a
// malformed or out-of-order row at a boundary, a part file's last line
// without a newline, a missing part file and a wrong count all fail as the
// walk over the concatenated file failed.
func TestVerifyTeraSortOutputWalksBlocks(t *testing.T) {
	row := func(k string) string { return k + "\tvalue\n" }
	ordered := row("aaaaaaaaaa") + row("bbbbbbbbbb") + row("cccccccccc") + row("dddddddddd")
	cases := []struct {
		name  string
		parts []string
		rows  int64
	}{
		{"ordered", []string{ordered, row("dddddddddd") + "eeeeeeeeee\tlast"}, 6},
		{"count", []string{ordered}, 5},
		{"malformed at a boundary", []string{row("aaaaaaaaaa") + row("bbbbbbbbbbb") + row("cccccccccc")}, 3},
		{"unordered at a boundary", []string{row("aaaaaaaaaa") + row("cccccccccc") + row("bbbbbbbbbb") + row("dddddddddd")}, 4},
		{"unordered across parts", []string{ordered, row("cccccccccc")}, 5},
		{"a long row over three blocks", []string{row("aaaaaaaaaa") + "bbbbbbbbbb\t" + strings.Repeat("v", 40) + "\n" + row("cccccccccc")}, 3},
		{"unordered after a long row", []string{"bbbbbbbbbb\t" + strings.Repeat("v", 40) + "\n" + row("aaaaaaaaaa")}, 2},
		{"empty lines", []string{"\n\n" + row("aaaaaaaaaa") + "\n" + row("bbbbbbbbbb") + "\n"}, 2},
		{"missing part", []string{ordered}, 4},
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
		if err != nil {
			t.Fatal(err)
		}
		d := hdfs.New(eng, cluster, 16, 1, 99)
		blocks := 0
		for p, data := range c.parts {
			f, err := d.PutInstant(mapreduce.PartFileName("/out", p), []byte(data), nil)
			if err != nil {
				t.Fatal(err)
			}
			blocks = max(blocks, len(f.Blocks))
		}
		if blocks < 3 {
			t.Fatalf("%s: the largest part file has %d blocks, want at least 3", c.name, blocks)
		}
		reduces := len(c.parts)
		if c.name == "missing part" {
			reduces++
		}
		got, want := VerifyTeraSortOutput(d, "/out", reduces, c.rows), verifyConcatenated(d, "/out", reduces, c.rows)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyTeraSortOutput = %v, want %v", c.name, got, want)
		}
		if c.name == "ordered" && got != nil {
			t.Errorf("ordered: %v", got)
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
// unnoticed. Besides two small corpora it pins the first 4 MiB of the
// streams shuffle_combine stages at seeds 1 and 7, 1 MiB over a 700-word
// vocabulary (another Zipf range, its rarest words drawn often) and one
// cluster_stream input set as the harness cuts it into files.
func TestCorpusPinned(t *testing.T) {
	for _, c := range []struct {
		vocab int
		seed  int64
		size  int64
	}{
		{30000, 1, 1 << 20},
		{500, 42, 64 << 10},
		{30000, 1, 4 << 20},
		{30000, 7, 4 << 20},
		{700, 3, 1 << 20},
	} {
		pin.Check(t, fmt.Sprintf("corpus vocab=%d seed=%d size=%d", c.vocab, c.seed, c.size),
			pin.Record{"output": pin.Digest(NewCorpus(c.vocab, c.seed).Generate(c.size))})
	}
	d, cl := testDFS(t)
	cfg := WordCountConfig{Files: 4, FileBytes: 20 << 10, Seed: 1001}
	names, err := GenerateWordCountInput(d, cl, "/in/cs/1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var files [][]byte
	for _, n := range names {
		b, err := d.Contents(n)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	pin.Check(t, fmt.Sprintf("wordcount input files=%d size=%d seed=%d", cfg.Files, cfg.FileBytes, cfg.Seed),
		pin.Record{"output": pin.Digest(files...)})
}

// The vocabulary itself, word by word in draw order, at the size the
// WordCount figures use: the duplicate check decides which draws survive,
// so a set that answered wrongly even once would move these.
func TestVocabularyPinned(t *testing.T) {
	for _, c := range []struct {
		size int
		seed int64
	}{{30000, 1}, {30000, 2}, {30000, 1000}, {500, 5}} {
		pin.Check(t, fmt.Sprintf("vocabulary size=%d seed=%d", c.size, c.seed),
			pin.Record{"words": pin.Digest(bytes.Join(NewCorpus(c.size, c.seed).vocabulary(), []byte{'\n'}))})
	}
}

// Every input set cluster_stream stages at its first seed, as the harness
// cuts them: 64 sets of four 20 KiB files over the default vocabulary at
// seeds 1000 to 1063, one digest over all 256 files.
func TestClusterStreamInputsPinned(t *testing.T) {
	const sets, files, fileBytes = 64, 4, 20 << 10
	var all [][]byte
	for seed := int64(1000); seed < 1000+sets; seed++ {
		for _, c := range corpusFiles(defaultVocab, seed, files, fileBytes) {
			all = append(all, c.Data)
		}
	}
	pin.Check(t, fmt.Sprintf("cluster_stream inputs sets=%d files=%d size=%d seeds=1000-%d", sets, files, fileBytes, 1000+sets-1),
		pin.Record{"output": pin.Digest(all...)})
}

// vocabulary returns the corpus's words in draw order.
func (c *Corpus) vocabulary() [][]byte {
	words := make([][]byte, len(c.words))
	for i, w := range c.words {
		words[i] = c.slab[w>>4 : w>>4+w&15]
	}
	return words
}

// BenchmarkNewCorpus builds the 30 000-word vocabulary every WordCount
// input set starts from.
func BenchmarkNewCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCorpus(30000, 1)
	}
}

// BenchmarkCorpusSets builds cluster_stream's inputs per iteration: 64
// corpora over the 30 000-word vocabulary, each at a seed of its own and
// generating 80 KiB (one set of four 20 KiB files), straight from
// NewCorpus so that no stream cache serves them.
func BenchmarkCorpusSets(b *testing.B) {
	const sets, setBytes = 64, 80 << 10
	b.ReportAllocs()
	b.SetBytes(sets * setBytes)
	for i := 0; i < b.N; i++ {
		for j := range int64(sets) {
			corpusSink = NewCorpus(defaultVocab, 1000+int64(i)*sets+j).Generate(setBytes)
		}
	}
}

var corpusSink []byte

// BenchmarkCorpusGenerate generates 4 MiB of text over the 30 000-word
// vocabulary per iteration, one corpus continuing its stream: the Zipf
// draw and the word copy, per word.
func BenchmarkCorpusGenerate(b *testing.B) {
	c := NewCorpus(30000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	words := 0
	for i := 0; i < b.N; i++ {
		text := c.Generate(4 << 20)
		words += bytes.Count(text, []byte{' '}) + bytes.Count(text, []byte{'\n'})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
}

// corpusStream returns at least n bytes of the cached (vocab, seed) stream.
func corpusStream(vocab int, seed int64, n int64) []byte {
	streamMu.Lock()
	defer streamMu.Unlock()
	return grownStream(streamKey{vocab, seed}, n).data
}

// A cached stream grows by continuing its generator, not by replaying the
// seed: generated in steps it equals one Generate at the final size, at
// every step, and bytes handed out earlier — files cut from them alias
// them — stay as they were. Generate(m) stops at the first word boundary
// at or past m, so a stream of length L is Generate(L-1). Another seed in
// between takes the generator, and the first stream then grows from its
// seed again.
func TestCorpusStreamExtends(t *testing.T) {
	const vocab = 700 // keys no other test streams
	var earlier [][]byte
	for _, step := range []struct {
		seed int64
		n    int64
	}{{31, 1}, {31, 5000}, {31, 5003}, {31, 4000}, {32, 3000}, {31, 64 << 10}, {31, 64<<10 + 1}, {32, 9000}} {
		got := corpusStream(vocab, step.seed, step.n)
		if int64(len(got)) < step.n || !bytes.Equal(got, NewCorpus(vocab, step.seed).Generate(int64(len(got))-1)) {
			t.Fatalf("after asking for %d bytes of seed %d the stream is not one Generate of its length (%d bytes)", step.n, step.seed, len(got))
		}
		earlier = append(earlier, got, bytes.Clone(got))
	}
	for i := 0; i < len(earlier); i += 2 {
		if !bytes.Equal(earlier[i], earlier[i+1]) {
			t.Fatalf("extending the stream rewrote the %d bytes it had handed out", len(earlier[i+1]))
		}
	}
}

// A generated file keeps one Content for the process: asking for the same
// WordCount files again returns the same Contents, and a longer request
// that extends the stream moves the cached ones to the new buffer with
// their digests, while the Contents already handed out keep their bytes.
func TestCorpusFilesKeepTheirContent(t *testing.T) {
	const vocab = 702 // keys no other test streams
	first := corpusFiles(vocab, 5, 2, 4000)
	if again := corpusFiles(vocab, 5, 2, 4000); again[0] != first[0] || again[1] != first[1] {
		t.Fatal("a repeated request got fresh Contents")
	}
	digests := []uint64{first[0].Digest(), first[1].Digest()}
	kept := [][]byte{bytes.Clone(first[0].Data), bytes.Clone(first[1].Data)}
	longer := corpusFiles(vocab, 5, 16, 4000)
	stream := corpusStream(vocab, 5, 1)
	var off int
	for i, c := range longer {
		if cap(c.Data) != len(c.Data) || &c.Data[0] != &stream[off] {
			t.Fatalf("file %d is not a clipped view of the stream at %d", i, off)
		}
		off += len(c.Data)
		if i < 2 && (!c.Digested() || c.Digest() != digests[i] || !bytes.Equal(c.Data, kept[i])) {
			t.Fatalf("file %d lost its digest when the stream grew", i)
		}
		if i < 2 && !bytes.Equal(first[i].Data, kept[i]) {
			t.Fatalf("file %d handed out earlier changed its bytes", i)
		}
	}
}

// The generator caches are shared by simulations on different goroutines:
// two streams grown from several goroutines at once, and one TeraGen
// configuration asked for by all of them, give each caller what a lone
// caller gets, and the Contents of one WordCount configuration, digested
// from every goroutine, agree. Under -race this checks the caches' locking
// and Digest's.
func TestGeneratorCachesConcurrentUse(t *testing.T) {
	const vocab = 701 // keys no other test streams
	cfg := TeraGenConfig{Rows: 400, Files: 2, Seed: 41}
	rows := make([][][]byte, 8)
	digests := make([][]uint64, len(rows))
	var wg sync.WaitGroup
	for g := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(g % 2)
			for _, n := range []int64{1000, 3000 + int64(g)*500, 9000} {
				got := corpusStream(vocab, seed, n)
				if int64(len(got)) < n || !bytes.Equal(got, NewCorpus(vocab, seed).Generate(int64(len(got))-1)) {
					t.Errorf("goroutine %d: %d bytes of seed %d are not one Generate of their length", g, n, seed)
				}
				for _, c := range corpusFiles(vocab, 2, 3, 800) {
					digests[g] = append(digests[g], c.Digest())
				}
			}
			var err error
			if rows[g], err = TeraRows(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g := range rows {
		if !slices.EqualFunc(rows[g], rows[0], bytes.Equal) {
			t.Fatalf("goroutine %d got other TeraGen rows than goroutine 0", g)
		}
		if !slices.Equal(digests[g], digests[0]) {
			t.Fatalf("goroutine %d digested other WordCount files than goroutine 0", g)
		}
	}
}

// The reducer sums one-digit counts without parsing, multiplies each by its
// run's length, takes totals below 1000 from the shared table and the rest
// from strconv, allocates for neither of the first two, and still refuses a
// count that is no number.
func TestWordCountReduceFastPaths(t *testing.T) {
	type run struct {
		v string
		n int
	}
	reduce := func(runs ...run) (text string) {
		var vals [][]byte
		var counts []int
		for _, r := range runs {
			vals, counts = append(vals, []byte(r.v)), append(counts, r.n)
		}
		wordCountReduce([]byte("w"), mapreduce.NewValues(vals, counts), func(_, v []byte) { text = string(v) })
		return text
	}
	for _, c := range []struct {
		runs []run
		want string
	}{
		{nil, "0"},
		{[]run{{"1", 1}, {"1", 1}, {"1", 1}}, "3"},
		{[]run{{"1", 3}}, "3"},
		{[]run{{"9", 1}, {"990", 1}}, "999"},
		{[]run{{"9", 1}, {"991", 1}}, "1000"},
		{[]run{{"1", 997}, {"3", 1}}, "1000"},
		{[]run{{"7", 2}, {"990", 1}}, "1004"},
		{[]run{{"123456", 1}, {"7", 1}, {"-7", 1}}, "123456"},
		{[]run{{"-5", 1}, {"2", 1}}, "-3"},
		{[]run{{"-5", 2}, {"2", 3}}, "-4"},
	} {
		if got := reduce(c.runs...); got != c.want {
			t.Errorf("reduce%v = %q, want %q", c.runs, got, c.want)
		}
	}
	for _, bad := range []string{"x", "", "1x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("count %q did not panic", bad)
				}
			}()
			reduce(run{"1", 1}, run{bad, 2})
		}()
	}
	key := []byte("w")
	runs := mapreduce.NewValues([][]byte{one, one, []byte("42")}, []int{1, 300, 2})
	emit := func(_, _ []byte) {}
	if n := testing.AllocsPerRun(100, func() { wordCountReduce(key, runs, emit) }); n != 0 {
		t.Errorf("a reduce inside the table allocates %v times", n)
	}
}

// BenchmarkTeraGen generates tera_modes' larger input, 500k rows in four
// files, per iteration, each at a seed of its own so that teraCache never
// serves it: the key draws and the row writes.
func BenchmarkTeraGen(b *testing.B) {
	const rows = 500_000
	b.ReportAllocs()
	b.SetBytes(rows * TeraRowLen)
	for i := 0; i < b.N; i++ {
		if _, err := TeraRows(TeraGenConfig{Rows: rows, Files: 4, Seed: 1_000_000 + int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*rows/b.Elapsed().Seconds()/1e6, "Mrows/s")
}
