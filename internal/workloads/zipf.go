package workloads

import (
	"math"
	"sync"
)

// zipfTable draws Zipf ranks exactly as math/rand's Zipf does, draw for
// draw, without its Exp and Log per draw in the common case.
//
// math/rand's Zipf (Hörmann & Derflinger's rejection-inversion; its
// constants, h, hinv and loop body below are reproduced from Go's
// math/rand/zipf.go, Copyright 2009 The Go Authors, BSD-style licence)
// draws r = rng.Float64(), maps it to ur = hxm + r·hx0minusHxm, inverts
// x = hinv(ur), takes the rank k = ⌊x+0.5⌋ and accepts it if k−x ≤ s
// (test 1) or ur ≥ h(k+0.5) − exp(−log(k+v)·q) (test 2); otherwise it
// draws again. h is increasing, so every decision but test 2 is a
// comparison of ur against a threshold that depends on the rank alone:
// k ≥ j exactly when ur ≥ h(j−0.5), and test 1 holds exactly when
// ur ≥ h(k−s). The table precomputes those thresholds for the first
// zipfHead ranks, and test 2's right-hand side with math/rand's own
// expression, so its comparison is the very one math/rand makes.
//
// Why the ranks are identical. The computed hinv(ur) is within a few ulps
// of the true inverse in v+x (a relative error below 1e-14: one rounding
// each in the product, Log, the scaling and Exp, the Log's error magnified
// by |1/(1−q)|), and ⌊x+0.5⌋ and k−x add at most one rounding more. The
// computed thresholds are within a few ulps of h at the true points. A
// relative band of zipfGuard (1e-9) around a threshold on the ur axis is
// a band of about zipfGuard·(v+x)/(q−1) around its point on the x axis,
// some 10⁵ times the error of either side. So an ur outside every band
// lies on the same side of each threshold under math/rand's arithmetic as
// under exact arithmetic, and the table's answer — the rank, whether test
// 1 holds, and so whether test 2 or another draw follows — is
// math/rand's. An ur inside a band, and an ur whose rank may lie past the
// table, runs math/rand's loop body itself. Either way each draw takes one
// Float64 from the source, as math/rand's does, so the source ends where
// math/rand's would.
//
// The guide table finds the rank: one entry per 2⁻¹⁴ of r, holding the
// lowest rank that bucket of r can reach (or zipfSlow if it can reach past
// the table); a walk up the rank boundaries from there settles the rank,
// in no steps where the bucket covers a single rank. A table depends only
// on (s, v, imax) and is never written after it is built.
type zipfTable struct {
	// math/rand's constants, computed by its formulas.
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	guide [zipfGuideLen]uint16
	// ranks[k] for the head ranks k, then one more entry whose lo bounds
	// the walk.
	ranks []zipfRank
}

// zipfRank holds one rank's thresholds on ur, each moved by the guard
// band to its safe side.
type zipfRank struct {
	lo, hi       float64 // the rank's interval [h(k−0.5), h(k+0.5)), shrunk
	accLo, accHi float64 // test 1's point h(k−s): below accLo it fails, from accHi on it holds
	test2        float64 // h(k+0.5) − exp(−log(k+v)·q), as math/rand computes it
}

const (
	zipfGuideLen = 1 << 14
	zipfHead     = 4096
	zipfGuard    = 1e-9
	zipfSlow     = math.MaxUint16
)

// The WordCount vocabulary's table, built on first use and shared by every
// corpus of that size.
var defaultZipf = sync.OnceValue(func() *zipfTable { return newZipfTable(1.2, 1, defaultVocab-1) })

// zipfFor returns the Zipf(1.2, 1) table over a vocabulary's ranks.
func zipfFor(vocabSize int) *zipfTable {
	if vocabSize == defaultVocab {
		return defaultZipf()
	}
	return newZipfTable(1.2, 1, uint64(vocabSize-1))
}

// newZipfTable builds the table of math/rand's NewZipf(·, s, v, imax),
// which requires s > 1 and v ≥ 1.
func newZipfTable(s, v float64, imax uint64) *zipfTable {
	z := &zipfTable{v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	head := min(imax+1, zipfHead)
	z.ranks = make([]zipfRank, head+1)
	for k := range z.ranks {
		fk := float64(k)
		r := &z.ranks[k]
		r.lo = above(z.h(fk - 0.5))
		r.hi = below(z.h(fk + 0.5))
		a := z.h(fk - z.s)
		r.accLo, r.accHi = below(a), above(a)
		r.test2 = z.h(fk+0.5) - math.Exp(-math.Log(fk+z.v)*z.q)
	}
	// ur falls as r rises: walk the buckets from the top of r, where ur and
	// the ranks are lowest.
	top := z.h(float64(head) - 0.5) // the first rank past the table starts here
	k := 0
	for b := zipfGuideLen - 1; b >= 0; b-- {
		if z.hxm+float64(b)/zipfGuideLen*z.hx0minusHxm >= top {
			z.guide[b] = zipfSlow // the bucket's highest ur may be past the table
			continue
		}
		least := z.hxm + float64(b+1)/zipfGuideLen*z.hx0minusHxm
		for k+1 < int(head) && least >= z.ranks[k+1].lo {
			k++
		}
		z.guide[b] = uint16(k)
	}
	return z
}

// above and below move a threshold out by the guard band, up or down.
func above(t float64) float64 { return t + zipfGuard*math.Abs(t) }
func below(t float64) float64 { return t - zipfGuard*math.Abs(t) }

// h and hinv are math/rand's.
func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// next returns the rank math/rand's Zipf over the same constants would
// return from src's next draws, and leaves src where that Zipf would: one
// Float64 per draw, until a draw is accepted.
func (z *zipfTable) next(src *source) uint64 {
	for {
		if k, ok := z.rank(src.Float64()); ok {
			return k
		}
	}
}

// rank decides one draw of r in [0, 1): the rank math/rand's Zipf returns
// for it, or false where it rejects r and draws again.
func (z *zipfTable) rank(r float64) (uint64, bool) {
	ur := z.hxm + r*z.hx0minusHxm
	if k := int(z.guide[int(r*zipfGuideLen)]); k != zipfSlow {
		for ur >= z.ranks[k+1].lo {
			k++
		}
		if t := &z.ranks[k]; ur >= t.lo && ur < t.hi {
			if ur >= t.accHi {
				return uint64(k), true
			}
			if ur < t.accLo {
				return uint64(k), ur >= t.test2
			}
		}
	}
	// math/rand's loop body.
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	return uint64(k), ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)
}
