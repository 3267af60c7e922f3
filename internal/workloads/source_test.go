package workloads

import (
	"math"
	"math/rand"
	"testing"
)

// sameDraws fails t unless src and math/rand seeded alike give the same
// values for draws rounds of one Int63 and one Float64 — interleaved, so
// Float64 consumes its Int63 where math/rand's does.
func sameDraws(t *testing.T, seed int64, src *source, draws int) {
	t.Helper()
	std := rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if want, got := std.Int63(), src.Int63(); got != want {
			t.Fatalf("seed %d round %d: Int63 = %d, math/rand %d", seed, i, got, want)
		}
		if want, got := std.Float64(), src.Float64(); got != want {
			t.Fatalf("seed %d round %d: Float64 = %v, math/rand %v", seed, i, got, want)
		}
	}
}

// The source against math/rand at seeds either side of the ones its
// seeding folds (math/rand reduces a seed mod 2³¹−1 and maps 0 to
// 89482311), for 20 000 draws each: some 33 times round the 607-slot ring.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 89482311, math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1, 1 << 40, math.MinInt64} {
		sameDraws(t, seed, newSource(seed), 10_000)
	}
}

// The source against math/rand over fuzzed seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sameDraws(t, seed, newSource(seed), 1500)
	})
}

// BenchmarkSource draws Int63s through rand.Rand and from the concrete
// source.
func BenchmarkSource(b *testing.B) {
	b.Run("mathrand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += rng.Int63()
		}
		sourceSink = sum
	})
	b.Run("source", func(b *testing.B) {
		src := newSource(1)
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += src.Int63()
		}
		sourceSink = sum
	})
}

var sourceSink int64
