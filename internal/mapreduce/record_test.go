package mapreduce

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// keyPrefix against the byte loop it replaced, at every length from 0 to
// 16 on random bytes, 0x00 and 0xff included.
func TestKeyPrefixMatchesByteLoop(t *testing.T) {
	loop := func(k []byte) uint64 {
		var p uint64
		for i, c := range k[:min(len(k), 8)] {
			p |= uint64(c) << (56 - 8*uint(i))
		}
		return p
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 16)
	for n := 0; n <= 16; n++ {
		for range 1000 {
			rng.Read(buf)
			if got, want := keyPrefix(buf[:n]), loop(buf[:n]); got != want {
				t.Fatalf("keyPrefix(%x) = %016x, want %016x", buf[:n], got, want)
			}
		}
	}
}

func TestRecSize(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got != recSize {
		t.Fatalf("Rec is %d bytes, recSize says %d", got, recSize)
	}
}

// refCompare is the order the flat comparator must reproduce: bytes.Compare
// on the key, then on the value.
func refCompare(ak, av, bk, bv []byte) int {
	if c := bytes.Compare(ak, bk); c != 0 {
		return c
	}
	return bytes.Compare(av, bv)
}

// twoRecs places two pairs in separate stores, the first split across input
// block and slab the way a map output holds them.
func twoRecs(ak, av, bk, bv []byte) (*outputBuilder, *outputBuilder) {
	block := append(append([]byte("##"), ak...), "##"...)
	a := newOutputBuilder(nil, "a", block, 1, maxOffset)
	a.add(0, block[2:2+len(ak)], av, 1) // key in place, value copied
	b := newOutputBuilder(nil, "b", nil, 1, maxOffset)
	b.add(0, bk, bv, 1)
	return a, b
}

// FuzzRecordOrder: the prefix-keyed comparator and the key-equality test
// agree with the two-level bytes.Compare order on arbitrary pairs.
func FuzzRecordOrder(f *testing.F) {
	for _, s := range [][4]string{
		{"", "", "", ""},
		{"", "v", "\x00", ""},
		{"a", "1", "a\x00", "1"},
		{"abcdefgh", "", "abcdefgh\x00", ""},
		{"abcdefghX", "1", "abcdefghY", "0"},
		{"abcdefgh", "2", "abcdefgh", "10"},
		{"abcdefghij", "x", "abcdefghij", "x"},
		{"\xff\xff", "", "\xff", "\xff"},
		{"abc", "", "abcdefghijk", ""},
	} {
		f.Add([]byte(s[0]), []byte(s[1]), []byte(s[2]), []byte(s[3]))
	}
	f.Fuzz(func(t *testing.T, ak, av, bk, bv []byte) {
		a, b := twoRecs(ak, av, bk, bv)
		ra, rb := a.parts[0][0], b.parts[0][0]
		if !bytes.Equal(a.key(ra), ak) || !bytes.Equal(a.value(ra), av) || !bytes.Equal(b.key(rb), bk) || !bytes.Equal(b.value(rb), bv) {
			t.Fatalf("pairs do not read back: %q=%q %q=%q", a.key(ra), a.value(ra), b.key(rb), b.value(rb))
		}
		want := cmp.Compare(refCompare(ak, av, bk, bv), 0)
		if got := cmp.Compare(compareRecs(ra, &a.store, rb, &b.store), 0); got != want {
			t.Fatalf("compareRecs(%q=%q, %q=%q) = %d, want %d", ak, av, bk, bv, got, want)
		}
		if got := cmp.Compare(compareRecs(rb, &b.store, ra, &a.store), 0); got != -want {
			t.Fatalf("compareRecs is not antisymmetric on (%q=%q, %q=%q)", ak, av, bk, bv)
		}
		if got := sameKey(ra, &a.store, rb, &b.store); got != bytes.Equal(ak, bk) {
			t.Fatalf("sameKey(%q, %q) = %v", ak, bk, got)
		}
	})
}

// Property: sorting an index yields exactly the reference order of its
// pairs.
func TestQuickSortRecs(t *testing.T) {
	f := func(keys, values [][]byte) bool {
		type pair struct{ k, v []byte }
		b := newOutputBuilder(nil, "q", nil, 1, maxOffset)
		var want []pair
		for i, k := range keys {
			var v []byte
			if len(values) > 0 {
				v = values[i%len(values)]
			}
			b.add(0, k, v, 1)
			want = append(want, pair{k, v})
		}
		b.sortRecs(0)
		slices.SortFunc(want, func(x, y pair) int { return refCompare(x.k, x.v, y.k, y.v) })
		for i, r := range b.parts[0] {
			if !bytes.Equal(b.key(r), want[i].k) || !bytes.Equal(b.value(r), want[i].v) {
				return false
			}
		}
		return len(b.parts[0]) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Emitted sub-slices of the input block are indexed where they lie; only
// foreign bytes reach the slab.
func TestInputBytesIndexedInPlace(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	data := []byte("pear apple pear\n")
	mo := ExecMapFile(spec, "", data)
	if got := string(mo.slab); got != "1" { // every "1" value shares one byte
		t.Fatalf("slab holds %q, want one shared \"1\"", got)
	}
	for _, r := range mo.Partitions[0] {
		if int(r.koff)+int(r.klen) > len(data) {
			t.Fatalf("key %q was copied, not indexed in the input block", mo.key(r))
		}
		if int(r.voff) < len(data) {
			t.Fatalf("value %q claims to lie inside the input block", mo.value(r))
		}
	}
	// A slice that starts inside the block but runs past its end is foreign.
	whole := []byte("abcdefgh")
	if _, ok := offsetWithin(whole[:4], whole[2:6]); ok {
		t.Fatal("a slice straddling the block's end passed for in-place")
	}
	if off, ok := offsetWithin(whole[2:], whole[3:5]); !ok || off != 1 {
		t.Fatalf("offsetWithin = %d, %v; want 1, true", off, ok)
	}
}

// A split whose input plus emitted bytes do not fit the uint32 offsets must
// fail loudly, naming the split — never wrap.
func TestOffsetSpaceGuard(t *testing.T) {
	spec := wcSpec([]string{"/in/big"}, "/o")
	data := []byte("aa bb cc dd ee ff\n") // 18 input bytes + one shared value byte
	if mo := execMap(nil, spec, "/in/big", data, 19); mo.TotalBytes == 0 {
		t.Fatal("an output that exactly fits was refused")
	}
	for _, limit := range []uint64{18, 10} { // slab overflow; input alone too big
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"/in/big"`) || !strings.Contains(msg, "offset space") {
					t.Fatalf("limit %d: panic %q does not name the split", limit, msg)
				}
			}()
			execMap(nil, spec, "/in/big", data, limit)
			t.Fatalf("limit %d: overflow went unnoticed", limit)
		}()
	}
}

// rowPartition indexes fixed 100-byte rows, 10-byte key and 90-byte value,
// in place as one uncounted partition in input order.
func rowPartition(rows []byte) *outputBuilder {
	b := newOutputBuilder(nil, "rows", rows, 1, maxOffset)
	for off := 0; off+100 <= len(rows); off += 100 {
		b.add(0, rows[off:off+10], rows[off+10:off+100], 1)
	}
	return b
}

// wordPartition is one 1 MiB WordCount split's sorted, counted partition.
func wordPartition() *outputBuilder {
	mo := ExecMapFile(wcSpec([]string{"/x"}, "/o"), "", zipfSplits(1, 1<<20)[0])
	return &outputBuilder{store: mo.store, parts: mo.Partitions, counts: mo.counts}
}

// onePrefixPartition holds n uncounted pairs whose keys share all eight
// prefix bytes and differ in their tails.
func onePrefixPartition(n int) *outputBuilder {
	rng := rand.New(rand.NewSource(7))
	b := newOutputBuilder(nil, "one-prefix", nil, 1, maxOffset)
	for range n {
		b.add(0, strconv.AppendUint([]byte("samepref"), rng.Uint64(), 36), []byte("v"), 1)
	}
	return b
}

// shuffled permutes partition 0 of b, each count with its Rec.
func shuffled(b *outputBuilder, seed int64) *outputBuilder {
	idx, counts := b.parts[0], b.counts[0]
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(i, j int) {
		idx[i], idx[j] = idx[j], idx[i]
		if counts != nil {
			counts[i], counts[j] = counts[j], counts[i]
		}
	})
	return b
}

// sortShapes draw the pairs of one partition for FuzzSortRecs, in the key
// shapes of mergeShapes, sized to take the radix sort through every level.
var sortShapes = []struct {
	name  string
	pairs func(rng *rand.Rand, n int) []kv
}{
	{"unique 10-byte keys", func(rng *rand.Rand, n int) []kv {
		rows := teraRows(rng, n)
		pairs := make([]kv, n)
		for i := range pairs {
			pairs[i] = kv{string(rows[100*i : 100*i+10]), string(rows[100*i+10 : 100*i+100])}
		}
		return pairs
	}},
	{"zipf words", func(rng *rand.Rand, n int) []kv {
		vocab := make([]string, 1000)
		for i := range vocab {
			w := make([]byte, 3+rng.Intn(8))
			for j := range w {
				w[j] = byte('a' + rng.Intn(26))
			}
			vocab[i] = string(w)
		}
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
		return drawPairs(n, func() kv { return kv{vocab[zipf.Uint64()], "1"} })
	}},
	{"long keys sharing the prefix", func(rng *rand.Rand, n int) []kv {
		return drawPairs(n, func() kv {
			return kv{"sharedpf" + randomBytes(rng, rng.Intn(5), "ab\x00"), randomBytes(rng, rng.Intn(2), "12")}
		})
	}},
	{"a against a\\x00", func(rng *rand.Rand, n int) []kv {
		return drawPairs(n, func() kv {
			return kv{"a" + randomBytes(rng, rng.Intn(4), "\x00"), randomBytes(rng, rng.Intn(2), "\x001")}
		})
	}},
	{"0x00, 0xff and empty bytes", func(rng *rand.Rand, n int) []kv {
		return drawPairs(n, func() kv {
			return kv{randomBytes(rng, rng.Intn(13), "\x00\xffa"), randomBytes(rng, rng.Intn(3), "\x00\xff")}
		})
	}},
	{"one prefix", func(rng *rand.Rand, n int) []kv {
		return drawPairs(n, func() kv { return kv{"samepref" + strconv.FormatUint(rng.Uint64(), 36), "v"} })
	}},
}

func drawPairs(n int, pair func() kv) []kv {
	pairs := make([]kv, n)
	for i := range pairs {
		pairs[i] = pair()
	}
	return pairs
}

// randomBytes draws n bytes from alphabet.
func randomBytes(rng *rand.Rand, n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// The orders FuzzSortRecs feeds a partition in.
const (
	asDrawn = iota
	alreadySorted
	reversed
	numOrders
)

// FuzzSortRecs checks sortRecs against the two-level bytes.Compare order
// on one partition of 0–20 000 pairs: n pairs of a shape from sortShapes
// plus the lines "<key>\t<value>" of text, fed as drawn, already sorted or
// reversed. The partition is built twice through add: uncounted, and
// counted, every pair added with a count of one to three, so equal pairs
// lie side by side as counted Recs of their own. Sorted, its pairs
// expanded by their counts must be the stable reference sort of every
// occurrence, and each distinct pair must keep its total count.
func FuzzSortRecs(f *testing.F) {
	for shape := range sortShapes {
		for order := range numOrders {
			for _, n := range []uint16{1, 33, 2000} {
				f.Add(uint8(shape), uint8(order), n, int64(n), []byte(nil))
			}
		}
		f.Add(uint8(shape), uint8(asDrawn), uint16(20_000), int64(shape), []byte(nil))
	}
	f.Add(uint8(0), uint8(asDrawn), uint16(0), int64(0), []byte("a\t1\na\x00\t1\n\t\n\xff\xff\t\x00\nabcdefghX\t\nabcdefgh\t\n"))
	f.Fuzz(func(t *testing.T, shape, order uint8, n uint16, seed int64, text []byte) {
		rng := rand.New(rand.NewSource(seed))
		pairs := sortShapes[int(shape)%len(sortShapes)].pairs(rng, int(n)%20_001)
		for _, line := range bytes.Split(text, []byte("\n")) {
			if len(line) > 0 {
				k, v, _ := bytes.Cut(line, []byte("\t"))
				pairs = append(pairs, kv{string(k), string(v)})
			}
		}
		switch order % numOrders {
		case alreadySorted:
			slices.SortStableFunc(pairs, compareKV)
		case reversed:
			slices.SortStableFunc(pairs, compareKV)
			slices.Reverse(pairs)
		}
		for _, counted := range []bool{false, true} {
			checkSort(t, pairs, counted, rng)
		}
	})
}

// checkSort builds one partition of pairs, keys alternately indexed in the
// input block and copied to the slab, sorts it and checks it.
func checkSort(t *testing.T, pairs []kv, counted bool, rng *rand.Rand) {
	t.Helper()
	var block []byte
	for _, p := range pairs {
		block = append(block, p.k...)
	}
	b := newOutputBuilder(nil, "sort", block, 1, maxOffset)
	var want []kv
	totals := map[kv]int{}
	off := 0
	for i, p := range pairs {
		k := block[off : off+len(p.k)]
		if i%2 == 1 {
			k = []byte(p.k)
		}
		off += len(p.k)
		n := uint32(1)
		if counted {
			n += uint32(rng.Intn(3))
		}
		b.add(0, k, []byte(p.v), n)
		for range n {
			want = append(want, p)
		}
		totals[p] += int(n)
	}
	b.sortRecs(0)
	if c := b.counts[0]; c != nil && len(c) != len(b.parts[0]) {
		t.Fatalf("counted=%v: %d counts for %d pairs", counted, len(c), len(b.parts[0]))
	}
	slices.SortStableFunc(want, compareKV)
	got := occurrences(b.output(), 0)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("counted=%v, %d pairs: occurrence %d is %q, want %q", counted, len(pairs), i, got[i], want[i])
			}
		}
		t.Fatalf("counted=%v: %d occurrences, want %d", counted, len(got), len(want))
	}
	for i, r := range b.parts[0] {
		p, n := kv{string(b.key(r)), string(b.value(r))}, 1
		if c := b.counts[0]; c != nil {
			n = int(c[i])
		}
		totals[p] -= n
	}
	for p, left := range totals {
		if left != 0 {
			t.Fatalf("counted=%v: pair %q is counted %d times off", counted, p, -left)
		}
	}
}

// The sort allocates nothing: not for an uncounted partition of 100-byte
// rows, and not for a counted one, whose counts move in place with their
// Recs. Only a counted run of one prefix longer than insertionMax could.
func TestSortRecsAllocatesNothing(t *testing.T) {
	for name, b := range map[string]*outputBuilder{
		"100-byte rows":      rowPartition(teraRows(rand.New(rand.NewSource(7)), 10_000)),
		"counted Zipf words": shuffled(wordPartition(), 7),
	} {
		idx, counts := b.parts[0], b.counts[0]
		if (counts != nil) != strings.HasPrefix(name, "counted") {
			t.Fatalf("%s: counts %v", name, counts != nil)
		}
		saved, savedCounts := slices.Clone(idx), slices.Clone(counts)
		allocs := testing.AllocsPerRun(5, func() {
			copy(idx, saved)
			copy(counts, savedCounts)
			b.sortRecs(0)
		})
		if allocs != 0 {
			t.Errorf("%s: sorting %d pairs made %v allocations, want 0", name, len(idx), allocs)
		}
		if !slices.IsSortedFunc(idx, func(x, y Rec) int { return compareRecs(x, &b.store, y, &b.store) }) {
			t.Errorf("%s: not sorted", name)
		}
	}
}
