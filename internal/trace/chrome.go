package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mrapid/internal/sim"
)

// Chrome trace_event export: the span tree serialized in the Trace Event
// Format that chrome://tracing and Perfetto load. Components map to threads
// (one lane per component) and spans, marks included, to complete ("X")
// events. Output is deterministic: lanes are sorted by name and spans keep
// log order.

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds of virtual time
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace serializes the log as Chrome trace_event JSON. Spans
// still open (e.g. abandoned by a node death) are drawn up to the current
// virtual instant and flagged with an "open" arg. Safe on a nil log, which
// writes an empty (but valid) trace.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	// One lane per component, sorted for a stable layout.
	laneSet := map[string]bool{}
	for _, s := range l.Spans() {
		laneSet[s.Component] = true
	}
	lanes := make([]string, 0, len(laneSet))
	for c := range laneSet {
		lanes = append(lanes, c)
	}
	sort.Strings(lanes)
	tid := make(map[string]int, len(lanes))
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "mrapid simulation"},
	})
	for i, c := range lanes {
		tid[c] = i + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": c},
		})
	}

	now := l.Now()
	for _, s := range l.Spans() {
		dur := micros(s.Duration(now))
		args := map[string]any{
			"span_id": int(s.ID),
			"parent":  int(s.Parent),
		}
		if s.Phase != "" {
			args["phase"] = s.Phase
		}
		if !s.Ended {
			args["open"] = true
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		cat := s.Phase
		if cat == "" {
			cat = "span"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: cat, Phase: "X",
			TS: micros(s.Start), Dur: &dur,
			PID: 1, TID: tid[s.Component], Args: args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: chrome export: %w", err)
	}
	return nil
}
