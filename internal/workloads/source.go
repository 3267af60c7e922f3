package workloads

import "math/rand"

// source is math/rand's default Source as a concrete type: the additive
// lagged Fibonacci generator x_n = x_{n−607} + x_{n−273} mod 2⁶⁴ of Go's
// math/rand/rng.go (Copyright 2009 The Go Authors, BSD-style licence). A
// corpus's vocabulary alone takes some 240 000 draws; through rand.Rand each
// is a call through the Source interface, here it is a few inlined
// instructions. newSource(seed) yields exactly the values
// rand.New(rand.NewSource(seed)) yields, Int63 for Int63 and Float64 for
// Float64.
//
// math/rand seeds its register from a table of 607 precomputed values that
// it does not export, so newSource recovers the seeded register instead of
// seeding one: it draws the first 607 outputs of rand.NewSource(seed). Step
// n adds the tap slot to the feed slot and returns the sum, and the feed
// visits each of the 607 slots once in 607 steps, so afterwards the register
// holds the outputs themselves, output n in step n's feed slot. Undoing the
// steps from the last to the first — subtracting each step's tap from its
// feed — runs the recurrence backwards to the register as seeded.
type source struct {
	tap, feed int // math/rand's indexes into vec; both step down each draw
	vec       [rngLen]uint64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// newSource returns a source in the state rand.NewSource(seed) starts in.
func newSource(seed int64) *source {
	std := rand.NewSource(seed).(rand.Source64)
	s := &source{tap: 0, feed: rngLen - rngTap}
	// Step n (from 1) feeds slot (rngLen−rngTap−n) mod rngLen and taps slot
	// rngLen−n.
	feed := func(n int) int { return (2*rngLen - rngTap - n) % rngLen }
	for n := 1; n <= rngLen; n++ {
		s.vec[feed(n)] = std.Uint64()
	}
	for n := rngLen; n >= 1; n-- {
		s.vec[feed(n)] -= s.vec[rngLen-n]
	}
	return s
}

// Uint64 is math/rand's rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 is rand.Rand's Int63: the low 63 bits of the next Uint64.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// top31 is rand.Rand's Int31, unsigned: Int63's top 31 bits, which Intn
// draws from for any n below 2³¹.
func (s *source) top31() uint32 { return uint32(s.Uint64()>>32) & (1<<31 - 1) }

// Float64 is rand.Rand's Float64: Int63 scaled to [0, 1), drawn again on
// the rare value that rounds to 1.
func (s *source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
