// Package report is the critical-path analyzer: it walks a finished job's
// span tree (package trace) and attributes every instant of the job's wall
// clock to one phase — AM startup, scheduling waits, map, shuffle, commit,
// reduce, client notification — reproducing the paper's Figure 2-style
// breakdown for any run. Because the attribution partitions the root
// span's interval, the phase durations always sum exactly to the job's
// elapsed virtual time.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
	"mrapid/internal/trace"
)

// Other labels time inside the job window not covered by any phase span:
// RPC round trips, AM heartbeat gaps, and similar protocol idle time.
const Other = "other"

// phasePriority decides which phase owns an instant when spans overlap
// (e.g. the shuffle running under a still-open map wave): later pipeline
// stages win, so overlap is charged to the stage that finishes the job.
var phasePriority = map[string]int{
	"reduce":   90,
	"map":      80,
	"shuffle":  70,
	"commit":   60,
	"launch":   50,
	"schedule": 40,
	"am":       30,
	"submit":   20,
	"notify":   10,
	Other:      0,
}

// phaseOrder is the canonical pipeline order for rendering.
var phaseOrder = []string{
	"submit", "am", "schedule", "launch", "map", "shuffle", "commit",
	"reduce", "notify", Other,
}

// PhaseDur is one row of the breakdown. Nanos is the exact virtual-time
// attribution; Seconds is its float rendering for human consumers.
type PhaseDur struct {
	Phase    string  `json:"phase"`
	Nanos    int64   `json:"nanos"`
	Seconds  float64 `json:"seconds"`
	Fraction float64 `json:"fraction"`

	dur sim.Time
}

// Report is a job's phase-attribution breakdown.
type Report struct {
	Job        string     `json:"job"`
	Mode       string     `json:"mode,omitempty"`
	Total      float64    `json:"total_seconds"`
	TotalNanos int64      `json:"total_nanos"`
	Phases     []PhaseDur `json:"phases"`
	Spans      int        `json:"spans"`
	Open       int        `json:"open_spans"` // spans abandoned by node deaths
	RootID     int        `json:"root_span"`
	start      sim.Time
	end        sim.Time
	totalNS    sim.Time
}

// TotalTime returns the analyzed window on the virtual clock.
func (r *Report) TotalTime() sim.Time { return r.totalNS }

// Analyze attributes the wall clock of the span tree rooted at root. The
// window is [root.Start, root.End] (an open root is charged to l.Now()).
func Analyze(l *trace.Log, root trace.SpanID) (*Report, error) {
	rs := l.Span(root)
	if rs == nil {
		return nil, fmt.Errorf("report: no span %d in trace", int(root))
	}
	now := l.Now()
	end := rs.End
	if !rs.Ended {
		end = now
	}
	rep := &Report{
		Job:     rs.Name,
		RootID:  int(root),
		start:   rs.Start,
		end:     end,
		totalNS: end - rs.Start,
	}
	for _, a := range rs.Attrs {
		if a.Key == "mode" {
			rep.Mode = a.Value
		}
	}

	// Collect the phase-carrying spans, clipped to the window.
	type interval struct {
		start, end sim.Time
		prio       int
		phase      string
	}
	var ivs []interval
	var bounds []sim.Time
	for _, s := range l.Subtree(root) {
		rep.Spans++
		if !s.Ended {
			rep.Open++
		}
		if s.Phase == "" {
			continue
		}
		st, en := s.Start, s.End
		if !s.Ended {
			en = now
		}
		if st < rs.Start {
			st = rs.Start
		}
		if en > end {
			en = end
		}
		if en <= st {
			continue
		}
		ivs = append(ivs, interval{start: st, end: en, prio: phasePriority[s.Phase], phase: s.Phase})
		bounds = append(bounds, st, en)
	}
	bounds = append(bounds, rs.Start, end)

	// Sweep the boundary instants: each elementary interval between two
	// consecutive boundaries belongs to exactly one phase (the open span
	// with the highest priority, or "other" when none is open), so the
	// per-phase sums partition the window exactly.
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	sums := map[string]sim.Time{}
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		best, bestPrio := Other, -1
		for _, iv := range ivs {
			if iv.start <= lo && hi <= iv.end && iv.prio > bestPrio {
				best, bestPrio = iv.phase, iv.prio
			}
		}
		sums[best] += hi - lo
	}

	for _, p := range phaseOrder {
		d, ok := sums[p]
		if !ok || d == 0 {
			continue
		}
		pd := PhaseDur{Phase: p, Nanos: int64(d), Seconds: d.Seconds(), dur: d}
		if rep.totalNS > 0 {
			pd.Fraction = float64(d) / float64(rep.totalNS)
		}
		rep.Phases = append(rep.Phases, pd)
	}
	rep.Total = rep.totalNS.Seconds()
	rep.TotalNanos = int64(rep.totalNS)
	return rep, nil
}

// Headline is the one-line summary: "wordcount (dplus) took 8.400s:
// 1.900s am, 0.700s schedule, 4.100s map, …".
func (r *Report) Headline() string {
	s := r.Job
	if r.Mode != "" {
		s += " (" + r.Mode + ")"
	}
	s += fmt.Sprintf(" took %s:", r.totalNS)
	for i, p := range r.Phases {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf(" %s %s", p.dur, p.Phase)
	}
	return s
}

// Render writes the human-readable breakdown.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, r.Headline()); err != nil {
		return err
	}
	for _, p := range r.Phases {
		if _, err := fmt.Fprintf(w, "  %-10s %12s  %5.1f%%\n", p.Phase, p.dur, p.Fraction*100); err != nil {
			return err
		}
	}
	if r.Open > 0 {
		if _, err := fmt.Fprintf(w, "  (%d of %d spans left open — abandoned by node deaths)\n", r.Open, r.Spans); err != nil {
			return err
		}
	}
	return nil
}

// Summary is the machine-readable JSON envelope: the phase report plus a
// snapshot of the metrics registry. Quantiles carries bucket-interpolated
// p50/p90/p99 per histogram (metrics.Histogram.Quantile), so consumers do
// not reimplement percentile math over the raw bucket counts.
type Summary struct {
	Report     *Report                       `json:"report,omitempty"`
	Counters   map[string]int64              `json:"counters,omitempty"`
	Histograms map[string]*metrics.Histogram `json:"histograms,omitempty"`
	Quantiles  map[string]map[string]float64 `json:"quantiles,omitempty"`
}

// WriteJSON serializes a summary. Either field may be nil. Output is
// deterministic: encoding/json sorts map keys.
func WriteJSON(w io.Writer, rep *Report, reg *metrics.Registry) error {
	hists := reg.Histograms()
	var quantiles map[string]map[string]float64
	if len(hists) > 0 {
		quantiles = make(map[string]map[string]float64, len(hists))
		for name, h := range hists {
			if h.Count == 0 {
				continue
			}
			quantiles[name] = map[string]float64{
				"p50": h.Quantile(0.50),
				"p90": h.Quantile(0.90),
				"p99": h.Quantile(0.99),
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(Summary{
		Report:     rep,
		Counters:   reg.Counters(),
		Histograms: hists,
		Quantiles:  quantiles,
	})
}
