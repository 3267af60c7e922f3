// Package trace records one structured record of a simulation run: a causal
// span tree on the virtual clock (how long each operation took and what it
// was part of). Point facts — a node crash, an HDFS read, a lost container —
// are zero-length spans (Mark) under the operation they happened in. The
// tree feeds the critical-path analyzer (package report), the Chrome export
// and the CLI's -trace dump. Tracing is optional: a nil *Log is safe to use
// and records nothing.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mrapid/internal/sim"
)

// Log accumulates spans in open order. The zero value is unusable; nil is a
// valid "disabled" log. A Log is driven only from the simulation engine's
// goroutine, like the engine itself.
type Log struct {
	eng   *sim.Engine
	spans []*Span
}

// New creates a log bound to the engine's clock. Every span is retained.
// The int parameter is ignored; it is kept only because the out-of-module
// benchmark harness still calls New(eng, limit).
func New(eng *sim.Engine, _ int) *Log {
	return &Log{eng: eng}
}

// Mark records a point fact at the current virtual time: a closed,
// zero-length span with no phase, so it owns no time in the critical-path
// analysis. Safe on a nil log.
func (l *Log) Mark(parent SpanID, component, name string, attrs ...Attr) {
	if l == nil {
		return
	}
	l.EndSpan(l.startAt(parent, component, name, "", l.eng.Now(), attrs))
}

// Dump writes every span, one per line, in start order: the start instant
// joined to the duration (or "open"), the component, the name, then the
// attributes. Safe on a nil log.
func (l *Log) Dump(w io.Writer) error {
	spans := append([]*Span(nil), l.Spans()...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var b strings.Builder
	for _, s := range spans {
		dur := "open"
		if s.Ended {
			dur = (s.End - s.Start).String()
		}
		b.Reset()
		fmt.Fprintf(&b, "%18s  %-14s %s", s.Start.String()+"+"+dur, s.Component, s.Name)
		for _, a := range s.Attrs {
			b.WriteString(" " + a.Key + "=" + a.Value)
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
