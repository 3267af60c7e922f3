package mapreduce

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

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
	a := newOutputBuilder("a", block, 1, 1, maxOffset)
	a.add(0, block[2:2+len(ak)], av, 1) // key in place, value copied
	b := newOutputBuilder("b", nil, 1, 1, maxOffset)
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
		b := newOutputBuilder("q", nil, 1, 1, maxOffset)
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

// The fold table gives up on keys that do not repeat: at foldTrial pairs
// with fewer folds it is dropped, what it folded stays counted, and later
// repeats are appended as pairs of their own.
func TestFoldTableDropsOnUniqueKeys(t *testing.T) {
	b := newOutputBuilder("u", nil, 1, 1, maxOffset)
	b.table = newFoldTable(foldMaxSlots)
	b.add(0, []byte("repeat"), nil, 1)
	b.add(0, []byte("repeat"), nil, 1)
	for i := 0; b.table != nil; i++ {
		b.add(0, []byte(strconv.Itoa(i)), nil, 1)
	}
	if n := len(b.parts[0]); n != foldTrial {
		t.Fatalf("the table was dropped at %d pairs, want %d", n, foldTrial)
	}
	b.add(0, []byte("repeat"), nil, 1)
	if n, c := len(b.parts[0]), b.counts[0]; n != foldTrial+1 || c[0] != 2 || c[n-1] != 1 {
		t.Fatalf("after the drop: %d pairs, counts %v…%v; want %d, 2…1", n, c[:2], c[n-1:], foldTrial+1)
	}
}

// Emitted sub-slices of the input block are indexed where they lie; only
// foreign bytes reach the slab.
func TestInputBytesIndexedInPlace(t *testing.T) {
	spec := wcSpec([]string{"/x"}, "/o")
	data := []byte("pear apple pear\n")
	mo := ExecMap(spec, data)
	if got := string(mo.slab); got != "1" { // three "1" values share one byte
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
	if mo := execMap(spec, "/in/big", data, 19, foldMaxSlots); mo.TotalBytes == 0 {
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
			execMap(spec, "/in/big", data, limit, foldMaxSlots)
			t.Fatalf("limit %d: overflow went unnoticed", limit)
		}()
	}
}
