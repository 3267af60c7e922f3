package flight

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
)

func TestWritePrometheusFormat(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.New()
	rec := New(eng, reg, nil, Config{Interval: 100 * time.Millisecond})

	eng.At(0, func() {
		reg.Set(metrics.With("queue_depth", "tenant", "acme"), 3)
		reg.Inc(metrics.With("jobs_admitted_total", "tenant", "acme"))
		reg.Observe(metrics.With("wait_seconds", "tenant", "acme"), 0.2)
		reg.Observe(metrics.With("wait_seconds", "tenant", "acme"), 7)
	})
	eng.At(sim.Time(300*time.Millisecond), func() { rec.Stop() })
	rec.Start()
	eng.Run()

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		`# TYPE jobs_admitted_total counter`,
		`# TYPE queue_depth gauge`,
		`# TYPE wait_seconds histogram`,
		`jobs_admitted_total{tenant="acme"} 1 100`,
		`jobs_admitted_total:rate{tenant="acme"}`,
		`queue_depth{tenant="acme"} 3`,
		`wait_seconds_bucket{tenant="acme",le="+Inf"} 2`,
		`wait_seconds_sum{tenant="acme"} 7.2`,
		`wait_seconds_count{tenant="acme"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}

	// Buckets are cumulative: the 0.25 bound has seen the 0.2 observation,
	// the 10 bound both.
	if !strings.Contains(out, `wait_seconds_bucket{tenant="acme",le="0.25"} 1`) {
		t.Error("cumulative bucket at le=0.25 wrong")
	}
	if !strings.Contains(out, `wait_seconds_bucket{tenant="acme",le="10"} 2`) {
		t.Error("cumulative bucket at le=10 wrong")
	}
}

func TestWritePrometheusEscapesHostileLabels(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.New()
	rec := New(eng, reg, nil, Config{Interval: 100 * time.Millisecond})

	// A tenant literally named `a=b,c` plus one named with a quote: the
	// registry key escapes them (metrics.With) and the exposition must
	// re-escape for its own quoting rules without aliasing.
	eng.At(0, func() {
		reg.Set(metrics.With("queue_depth", "tenant", "a=b,c"), 1)
		reg.Set(metrics.With("queue_depth", "tenant", `say "hi"`), 2)
	})
	eng.At(sim.Time(200*time.Millisecond), func() { rec.Stop() })
	rec.Start()
	eng.Run()

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `queue_depth{tenant="a=b,c"} 1`) {
		t.Errorf("structural characters did not round-trip:\n%s", out)
	}
	if !strings.Contains(out, `queue_depth{tenant="say \"hi\""} 2`) {
		t.Errorf("quote not escaped for exposition:\n%s", out)
	}
}

func TestPromHelpers(t *testing.T) {
	if promMillis(sim.Time(1500*time.Millisecond)) != 1500 {
		t.Fatal("promMillis")
	}
	if promFloat(0.5) != "0.5" || promFloat(10) != "10" {
		t.Fatalf("promFloat: %q %q", promFloat(0.5), promFloat(10))
	}
	got := promLabels([]metrics.Label{{Key: "a", Value: `x\y`}, {Key: "b", Value: "z"}})
	if got != `{a="x\\y",b="z"}` {
		t.Fatalf("promLabels = %s", got)
	}
	if promLabels(nil) != "" {
		t.Fatal("empty labels should render nothing")
	}
}

func TestDashboardRenders(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.New()
	rec := New(eng, reg, nil, Config{
		Interval: 100 * time.Millisecond,
		SLO:      SLOConfig{TargetWait: time.Second},
	})
	eng.At(0, func() {
		reg.Inc("jobs_total")
		rec.SLO().JobAdmitted("acme", 3*time.Second)
	})
	eng.At(sim.Time(300*time.Millisecond), func() { rec.Stop() })
	rec.Start()
	eng.Run()

	var buf bytes.Buffer
	if err := WriteDashboard(&buf, Dashboard{Title: "test run", Rec: rec}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<title>test run</title>",
		"jobs_total",
		"acme",                      // SLO table row
		"budget 0.1, alert at burn", // the fixed miss budget
		"<th>burn 10m0s</th>",       // the longest window
		"<polyline",                 // sparkline
		"</body></html>",            // complete document
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// Deterministic: render twice.
	var a, b bytes.Buffer
	if err := WriteDashboard(&a, Dashboard{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	if err := WriteDashboard(&b, Dashboard{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dashboard render is not deterministic")
	}
}
