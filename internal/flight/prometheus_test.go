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
		reg.GaugeHandle("queue_depth", "tenant", "acme").Set(3)
		reg.CounterHandle("jobs_admitted_total", "tenant", "acme").Inc()
		reg.HistogramHandle("wait_seconds", "tenant", "acme").Observe(0.2)
		reg.HistogramHandle("wait_seconds", "tenant", "acme").Observe(7)
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
		`queue_depth{tenant="acme"} 3`,
		`wait_seconds_bucket{tenant="acme",le="+Inf"} 2`,
		`wait_seconds_sum{tenant="acme"} 7.2`,
		`wait_seconds_count{tenant="acme"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}

	// The dump holds recorded samples only; no derived series.
	if strings.Contains(out, ":rate") {
		t.Errorf("dump carries a derived rate series:\n%s", out)
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
		reg.GaugeHandle("queue_depth", "tenant", "a=b,c").Set(1)
		reg.GaugeHandle("queue_depth", "tenant", `say "hi"`).Set(2)
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
