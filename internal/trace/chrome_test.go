package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"mrapid/internal/pin"
	"mrapid/internal/sim"
)

// goldenLog builds a small but representative span tree: a job root, an AM
// startup with a scheduling wait under it, one map with a read sub-span, an
// open (abandoned) task, and an HDFS mark.
func goldenLog() *Log {
	eng := sim.NewEngine()
	l := New(eng, 16)
	var root, am, task SpanID
	eng.After(1*time.Second, func() {
		root = l.StartSpan(0, "job", "wordcount", "", A("mode", "dplus"))
		am = l.StartSpan(root, "am", "am-startup", "am", A("cold", "true"))
	})
	eng.After(1500*time.Millisecond, func() {
		l.SpanSince(am, "rm", "alloc am", "schedule", sim.Time(1200*time.Millisecond))
		l.EndSpan(am)
		task = l.StartSpan(root, "task/node-01", "map-0", "map")
		read := l.StartSpan(task, "task/node-01", "read", "map")
		l.EndSpan(read, A("bytes", "1048576"))
		l.Mark(0, "hdfs", "read", A("file", "/in/wc-0"), A("range", "[0,1048576)"), A("node", "node-01"))
	})
	eng.After(3*time.Second, func() {
		l.EndSpan(task, A("out_bytes", "2097152"))
		l.StartSpan(root, "task/node-02", "map-1", "map") // abandoned: stays open
		l.EndSpan(root)
	})
	eng.Run()
	return l
}

// TestChromeTraceGolden pins every field of every exported event, and the
// digest of the exact bytes.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rec := pin.Fields(json.RawMessage(buf.Bytes()))
	rec["bytes"] = pin.Digest(buf.Bytes())
	pin.Check(t, "chrome goldenLog", rec)
}

func TestChromeTraceIsValidAndComplete(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   *float64       `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var complete, meta, open int
	for _, e := range out.TraceEvents {
		switch e.Phase {
		case "X":
			complete++
			if e.Dur == nil {
				t.Fatalf("complete event %q lacks dur", e.Name)
			}
			if e.Name == "map-1" {
				if e.Args["open"] != true {
					t.Fatalf("abandoned span not flagged open: %v", e.Args)
				}
				open++
			}
		case "M":
			meta++
		}
		if e.PID != 1 {
			t.Fatalf("event %q pid = %d", e.Name, e.PID)
		}
	}
	if complete != 7 { // root, am, alloc, map-0, read, the hdfs mark, map-1
		t.Fatalf("complete events = %d, want 7", complete)
	}
	if open != 1 {
		t.Fatalf("open = %d", open)
	}
	// One lane per component (job, am, rm, hdfs, task/node-01,
	// task/node-02) plus the process name.
	if meta != 7 {
		t.Fatalf("metadata events = %d, want 7", meta)
	}
	// The am-startup span must convert virtual ns to µs: 1s → 1e6 µs.
	for _, e := range out.TraceEvents {
		if e.Phase == "X" && e.Name == "am-startup" {
			if e.TS != 1e6 || *e.Dur != 0.5e6 {
				t.Fatalf("am-startup ts=%v dur=%v, want 1e6/0.5e6", e.TS, *e.Dur)
			}
		}
	}
}

func TestChromeTraceNilLog(t *testing.T) {
	var l *Log
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil export invalid: %v", err)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenLog().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenLog().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical logs exported different bytes")
	}
}
