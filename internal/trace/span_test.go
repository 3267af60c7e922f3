package trace

import (
	"testing"
	"time"

	"mrapid/internal/sim"
)

func TestNilLogSpansAreSafe(t *testing.T) {
	var l *Log
	if id := l.StartSpan(0, "rm", "x", "schedule"); id != 0 {
		t.Fatalf("nil StartSpan = %d", id)
	}
	if id := l.SpanSince(0, "rm", "x", "schedule", 0); id != 0 {
		t.Fatalf("nil SpanSince = %d", id)
	}
	l.EndSpan(1)
	l.Annotate(1, A("k", "v"))
	if l.Span(1) != nil || l.Spans() != nil || l.Subtree(1) != nil {
		t.Fatal("nil log returned spans")
	}
	if l.Now() != 0 {
		t.Fatal("nil log clock nonzero")
	}
}

func TestSpanTree(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, 0)
	var root, child, grand, sibling SpanID
	eng.After(1*time.Second, func() {
		root = l.StartSpan(0, "job", "wordcount", "", A("mode", "dplus"))
		child = l.StartSpan(root, "am", "am-startup", "am")
	})
	eng.After(2*time.Second, func() {
		grand = l.StartSpan(child, "rm", "alloc am", "schedule")
		l.EndSpan(grand)
		l.EndSpan(child, A("ready", "true"))
	})
	eng.After(3*time.Second, func() {
		sibling = l.StartSpan(root, "task/node-01", "map-0", "map")
	})
	eng.After(5*time.Second, func() { l.EndSpan(root) })
	eng.Run()

	if root != 1 || child != 2 || grand != 3 || sibling != 4 {
		t.Fatalf("ids = %d %d %d %d, want sequential from 1", root, child, grand, sibling)
	}
	rs := l.Span(root)
	if rs == nil || rs.Start != sim.Time(1*time.Second) || rs.End != sim.Time(5*time.Second) || !rs.Ended {
		t.Fatalf("root span = %+v", rs)
	}
	cs := l.Span(child)
	if cs.Parent != root || cs.Phase != "am" || cs.Duration(0) != sim.Time(1*time.Second) {
		t.Fatalf("child span = %+v", cs)
	}
	if got := len(cs.Attrs); got != 1 {
		t.Fatalf("child attrs = %d (EndSpan attrs lost?)", got)
	}
	// Sibling was never ended: open spans charge until the observation point.
	ss := l.Span(sibling)
	if ss.Ended || ss.Duration(l.Now()) != sim.Time(2*time.Second) {
		t.Fatalf("open span = %+v dur=%v", ss, ss.Duration(l.Now()))
	}
	if kids := l.Children(root); len(kids) != 2 || kids[0].ID != child || kids[1].ID != sibling {
		t.Fatalf("Children(root) = %+v", kids)
	}
	if sub := l.Subtree(root); len(sub) != 4 {
		t.Fatalf("Subtree(root) = %d spans, want 4", len(sub))
	}
	if sub := l.Subtree(child); len(sub) != 2 || sub[1].ID != grand {
		t.Fatalf("Subtree(child) = %+v", sub)
	}
}

func TestEndSpanIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, 0)
	var id SpanID
	eng.After(1*time.Second, func() {
		id = l.StartSpan(0, "job", "j", "")
		l.EndSpan(id, A("winner", "dplus"))
	})
	eng.After(2*time.Second, func() {
		// A speculative loser's kill path may end the span again, later;
		// the first close must win.
		l.EndSpan(id, A("killed", "true"))
	})
	eng.Run()
	s := l.Span(id)
	if s.End != sim.Time(1*time.Second) || len(s.Attrs) != 1 {
		t.Fatalf("double EndSpan mutated span: %+v", s)
	}
	l.EndSpan(0)      // span 0 is a no-op target
	l.EndSpan(999)    // unknown id is a no-op
	l.Annotate(0)     // ditto
	l.Annotate(99999) // ditto
}

func TestSpanSinceIsRetroactiveAndClosed(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, 0)
	var id SpanID
	eng.After(4*time.Second, func() {
		id = l.SpanSince(0, "rm", "alloc map-0", "schedule", sim.Time(1*time.Second), A("node", "node-01"))
	})
	eng.Run()
	s := l.Span(id)
	if !s.Ended || s.Start != sim.Time(1*time.Second) || s.End != sim.Time(4*time.Second) {
		t.Fatalf("SpanSince = %+v", s)
	}
	if len(s.Attrs) != 1 || s.Attrs[0].Value != "node-01" {
		t.Fatalf("SpanSince attrs = %+v", s.Attrs)
	}
}
