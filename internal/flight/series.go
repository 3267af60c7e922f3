package flight

import "mrapid/internal/sim"

// Sample is one (virtual instant, value) point of a time-series.
type Sample struct {
	At    sim.Time
	Value float64
}

// ringCap bounds each series' retained samples: 4096 ticks at the default
// 250ms interval keep the last 17 minutes of virtual time.
const ringCap = 4096

// Series is a ring-buffered time-series: a fixed-capacity window of the
// most recent ringCap samples. The flight recorder appends one sample per
// tick; once the ring fills, the oldest samples fall off and are counted.
type Series struct {
	// Name is the full series key in metrics.With form, e.g.
	// "slo_burn_rate{tenant=tenant-0,window=30s}".
	Name string

	buf     []Sample
	head    int // index of the oldest sample
	evicted int64
}

func (s *Series) add(at sim.Time, v float64) {
	if len(s.buf) < ringCap {
		s.buf = append(s.buf, Sample{At: at, Value: v})
		return
	}
	s.buf[s.head] = Sample{At: at, Value: v}
	s.head = (s.head + 1) % ringCap
	s.evicted++
}

// Len reports the number of retained samples.
func (s *Series) Len() int { return len(s.buf) }

// Evicted reports how many samples the ring has dropped from the front.
func (s *Series) Evicted() int64 { return s.evicted }

// Samples returns the retained samples oldest-first.
func (s *Series) Samples() []Sample {
	out := make([]Sample, 0, len(s.buf))
	out = append(out, s.buf[s.head:]...)
	out = append(out, s.buf[:s.head]...)
	return out
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	if len(s.buf) == 0 {
		return Sample{}, false
	}
	i := s.head - 1
	if i < 0 {
		i = len(s.buf) - 1
	}
	return s.buf[i], true
}
