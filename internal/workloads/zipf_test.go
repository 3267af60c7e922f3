package workloads

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The table drawing from a source against rand.NewZipf drawing from
// math/rand's, on the same seeds: every rank equal, and both sources left
// in one place (the next Int63 equal), over the corpus's vocabulary (a
// million draws) and three ranges whose tables cover every rank.
func TestZipfTableMatchesStdlib(t *testing.T) {
	for _, imax := range []uint64{19, 499, 699, defaultVocab - 1} {
		z := newZipfTable(1.2, 1, imax)
		draws := 50_000 // per seed
		if imax == defaultVocab-1 {
			draws = 1_000_000 / 8
		}
		if raceDetector || testing.Short() {
			draws /= 10
		}
		for seed := int64(1); seed <= 8; seed++ {
			a, b := rand.New(rand.NewSource(seed)), newSource(seed)
			std := rand.NewZipf(a, 1.2, 1, imax)
			for i := 0; i < draws; i++ {
				if want, got := std.Uint64(), z.next(b); got != want {
					t.Fatalf("imax=%d seed=%d draw %d: table gave rank %d, rand.Zipf %d", imax, seed, i, got, want)
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("imax=%d seed=%d: after %d draws the table left its source elsewhere than rand.Zipf", imax, seed, draws)
			}
		}
	}
}

// scripted is a rand.Source that returns the value queued in it, then a
// fixed filler, and counts the calls.
type scripted struct {
	queue []int64
	calls int
}

// start queues v and resets the count.
func (s *scripted) start(v int64) {
	s.queue, s.calls = append(s.queue[:0], v), 0
}

func (s *scripted) Int63() int64 {
	s.calls++
	if len(s.queue) > 0 {
		v := s.queue[0]
		s.queue = s.queue[1:]
		return v
	}
	return 0x2545f4914f6cdd1d // r ≈ 0.29, a rank well inside the table
}

func (s *scripted) Seed(int64) {}

// Both samplers driven by one chosen draw at, and 1, 2, 3, 4, 8, 16, 32
// and 64 representable values of r either side of, every point the table
// decides by: each guide bucket's edge, each head rank's boundary and
// test-1 point, and both edges of their guard bands. The table's side is
// next's loop over rank, fed from the scripted source. The rank and the
// number of draws taken (a rejected draw takes another) must agree.
func TestZipfTableScriptedDraws(t *testing.T) {
	for _, imax := range []uint64{19, 699, defaultVocab - 1} {
		z := newZipfTable(1.2, 1, imax)
		std, tab := &scripted{}, &scripted{}
		stdZipf, tabRand := rand.NewZipf(rand.New(std), 1.2, 1, imax), rand.New(tab)
		var points []float64 // on the r axis
		for b := 1; b < zipfGuideLen; b++ {
			points = append(points, float64(b)/zipfGuideLen)
		}
		rOf := func(ur float64) float64 { return (ur - z.hxm) / z.hx0minusHxm }
		for k := range z.ranks {
			fk := float64(k)
			for _, ur := range []float64{z.h(fk - 0.5), z.h(fk - z.s)} {
				points = append(points, rOf(ur), rOf(above(ur)), rOf(below(ur)))
			}
		}
		offsets := []float64{0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 16, -16, 32, -32, 64, -64}
		if raceDetector || testing.Short() {
			offsets = offsets[:3]
		}
		for _, p := range points {
			if p <= 0 || p >= 1 {
				continue
			}
			for _, j := range offsets {
				r := p + j*ulp(p)
				if r <= 0 || r >= 1 {
					continue
				}
				// Float64 is float64(Int63()) / 2⁶³, exact for these r.
				draw := int64(r * (1 << 63))
				std.start(draw)
				tab.start(draw)
				want, got := stdZipf.Uint64(), z.nextFrom(tabRand)
				if got != want || tab.calls != std.calls {
					t.Fatalf("imax=%d r=%v: table gave rank %d after %d draws, rand.Zipf %d after %d",
						imax, r, got, tab.calls, want, std.calls)
				}
			}
		}
	}
}

// nextFrom is next drawing from rng: rank decides each Float64 until one
// is accepted.
func (z *zipfTable) nextFrom(rng *rand.Rand) uint64 {
	for {
		if k, ok := z.rank(rng.Float64()); ok {
			return k
		}
	}
}

// ulp is the spacing of float64 values at x > 0.
func ulp(x float64) float64 { return math.Nextafter(x, 2) - x }

// The shared table is what NewCorpus hands every default-sized corpus, and
// it stays within its budget.
func TestZipfDefaultTableShared(t *testing.T) {
	a, b := NewCorpus(defaultVocab, 1), NewCorpus(defaultVocab, 2)
	if a.zipf != b.zipf {
		t.Fatal("two default-sized corpora built their own tables")
	}
	size := unsafe.Sizeof(*a.zipf) + uintptr(len(a.zipf.ranks))*unsafe.Sizeof(zipfRank{})
	if size > 256<<10 {
		t.Fatalf("the default table takes %d bytes, want at most 256 KiB", size)
	}
}

// The table drawing from a source against rand.NewZipf drawing from
// math/rand's, on fuzzed seeds, ranges and parameters: s in [1.05, 4.04],
// v in [1, 16], imax in [0, 65535].
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Add(int64(1), uint16(29999), uint16(15), uint8(0))
	f.Add(int64(7), uint16(699), uint16(15), uint8(0))
	f.Add(int64(-3), uint16(0), uint16(0), uint8(3))
	f.Add(int64(42), uint16(65535), uint16(299), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, imax, sRaw uint16, vRaw uint8) {
		s, v := 1.05+float64(sRaw%300)/100, 1+float64(vRaw%16)
		z := newZipfTable(s, v, uint64(imax))
		a, b := rand.New(rand.NewSource(seed)), newSource(seed)
		std := rand.NewZipf(a, s, v, uint64(imax))
		for i := 0; i < 2000; i++ {
			if want, got := std.Uint64(), z.next(b); got != want {
				t.Fatalf("s=%v v=%v imax=%d seed=%d draw %d: table gave rank %d, rand.Zipf %d", s, v, imax, seed, i, got, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("s=%v v=%v imax=%d seed=%d: the table left its source elsewhere than rand.Zipf", s, v, imax, seed)
		}
	})
}

// BenchmarkZipf draws ranks over the corpus's 30 000-word vocabulary with
// math/rand's Zipf and with the table.
func BenchmarkZipf(b *testing.B) {
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, defaultVocab-1)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += z.Uint64()
		}
		zipfSink = sum
	})
	b.Run("table", func(b *testing.B) {
		z, src := defaultZipf(), newSource(1)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += z.next(src)
		}
		zipfSink = sum
	})
}

var zipfSink uint64
