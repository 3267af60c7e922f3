package trace

import (
	"strings"
	"testing"
	"time"

	"mrapid/internal/sim"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Mark(0, "rm", "node expired", A("node", "node-01"))
	if l.Spans() != nil {
		t.Fatal("nil log retained a mark")
	}
	var b strings.Builder
	if err := l.Dump(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil dump wrote output")
	}
}

func TestMarkRecordsVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, 0)
	var parent SpanID
	eng.After(1*time.Second, func() { parent = l.StartSpan(0, "job", "wc", "") })
	eng.After(2*time.Second, func() { l.Mark(parent, "rm", "lost", A("container", "3")) })
	eng.Run()
	if len(l.Spans()) != 2 {
		t.Fatalf("%d spans, want the parent and the mark", len(l.Spans()))
	}
	m := l.Spans()[1]
	at := sim.Time(2 * time.Second)
	if m.Parent != parent || m.Component != "rm" || m.Name != "lost" || m.Phase != "" {
		t.Fatalf("mark = %+v", m)
	}
	if !m.Ended || m.Start != at || m.End != at || m.Duration(l.Now()) != 0 {
		t.Fatalf("mark is not a closed zero-length span at %s: %+v", at, m)
	}
	if len(m.Attrs) != 1 || m.Attrs[0] != A("container", "3") {
		t.Fatalf("mark attrs = %+v", m.Attrs)
	}
	if eng.Fired() != 2 {
		t.Fatalf("engine fired %d events, want 2: a mark schedules none", eng.Fired())
	}
}

func TestDumpWritesLines(t *testing.T) {
	eng := sim.NewEngine()
	l := New(eng, 0)
	var open SpanID
	eng.After(1*time.Second, func() { open = l.StartSpan(0, "task/node-01", "map-0", "map") })
	eng.After(3*time.Second, func() {
		l.Mark(open, "hdfs", "read", A("file", "/in/wc-0"), A("bytes", "10"))
		// Opened now, started earlier: the dump orders by start.
		l.SpanSince(0, "rm", "alloc map-0", "schedule", sim.Time(500*time.Millisecond))
	})
	eng.Run()
	var b strings.Builder
	if err := l.Dump(&b); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"0.500s+2.500s", "rm", "alloc", "map-0"},
		{"1.000s+open", "task/node-01", "map-0"},
		{"3.000s+0.000s", "hdfs", "read", "file=/in/wc-0", "bytes=10"},
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("Dump wrote %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for i, line := range lines {
		if got := strings.Fields(line); strings.Join(got, " ") != strings.Join(want[i], " ") {
			t.Errorf("line %d = %q, want fields %q", i, line, want[i])
		}
	}
}
