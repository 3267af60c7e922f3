package flight

import (
	"fmt"
	"html"
	"io"
	"strconv"

	"mrapid/internal/report"
)

// Dashboard bundles everything WriteDashboard renders: the recorder's
// series and SLO state, and the slowest phase-attributed spans from the
// critical-path analyzer.
type Dashboard struct {
	Title string
	Rec   *Recorder

	// TopSpans is the top-k slowest phase-carrying spans (report.TopSpans).
	TopSpans []report.SlowSpan
}

// WriteDashboard renders a self-contained HTML page: inline CSS, one SVG
// sparkline per series, the per-tenant SLO table with burn rates, warnings
// for dropped trace events / evicted samples, and the top-k slowest phases.
// No external assets, so the file works from a CI artifact or file:// URL.
func WriteDashboard(w io.Writer, d Dashboard) error {
	r := d.Rec
	title := d.Title
	if title == "" {
		title = "mrapid flight recorder"
	}
	out := &errWriter{w: w}

	fmt.Fprintf(out, `<!doctype html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body{font:14px/1.45 system-ui,sans-serif;margin:24px;background:#fafafa;color:#1a1a1a}
h1{font-size:20px;margin:0 0 4px} h2{font-size:16px;margin:28px 0 8px}
.meta{color:#666;margin-bottom:16px}
.warn{background:#fff3cd;border:1px solid #e0c36a;padding:8px 12px;border-radius:4px;margin:8px 0}
table{border-collapse:collapse;background:#fff}
th,td{border:1px solid #ddd;padding:4px 10px;text-align:right;font-variant-numeric:tabular-nums}
th{background:#f0f0f0} td.l,th.l{text-align:left}
td.bad{background:#fdd;font-weight:600} td.ok{background:#dfd}
.grid{display:flex;flex-wrap:wrap;gap:10px}
.card{background:#fff;border:1px solid #ddd;border-radius:4px;padding:8px;width:300px}
.card .name{font-size:11px;color:#444;word-break:break-all}
.card .last{font-size:13px;font-weight:600}
svg polyline{fill:none;stroke:#2563eb;stroke-width:1.5}
</style></head><body>
<h1>%s</h1>
`, html.EscapeString(title), html.EscapeString(title))

	fmt.Fprintf(out, `<div class="meta">%d samples @ %s virtual interval &middot; %d series &middot; virtual now %s</div>`+"\n",
		r.Samples(), r.Interval(), len(r.series), r.eng.Now())

	if n := r.DroppedEvents(); n > 0 {
		fmt.Fprintf(out, `<div class="warn">&#9888; trace event ring dropped %d events (trace_dropped_events_total) — the flat event log is truncated; spans are unaffected.</div>`+"\n", n)
	}
	if n := r.Evicted(); n > 0 {
		fmt.Fprintf(out, `<div class="warn">&#9888; series rings evicted %d samples — early history is truncated; raise the interval.</div>`+"\n", n)
	}

	if slo := r.SLO(); slo != nil {
		cfg := slo.Config()
		fmt.Fprintf(out, "<h2>SLO — wait target %s, budget %.3g, alert at burn %.3g</h2>\n<table><tr><th class=\"l\">tenant</th><th>p99 wait</th><th>events</th><th>bad</th>",
			cfg.TargetWait, MissBudget, burnAlert)
		for _, win := range sloWindows {
			fmt.Fprintf(out, "<th>burn %s</th>", win)
		}
		fmt.Fprintf(out, "<th>breaches</th></tr>\n")
		for _, tn := range slo.Tenants() {
			total, bad := slo.Events(tn)
			p99 := slo.P99Wait(tn)
			cls := "ok"
			if p99 > cfg.TargetWait.Seconds() {
				cls = "bad"
			}
			fmt.Fprintf(out, `<tr><td class="l">%s</td><td class="%s">%.3fs</td><td>%d</td><td>%d</td>`,
				html.EscapeString(tn), cls, p99, total, bad)
			for _, win := range sloWindows {
				burn := slo.BurnRate(tn, win)
				cls := "ok"
				if burn >= burnAlert {
					cls = "bad"
				}
				fmt.Fprintf(out, `<td class="%s">%.2f</td>`, cls, burn)
			}
			fmt.Fprintf(out, "<td>%d</td></tr>\n", slo.Breaches(tn))
		}
		fmt.Fprintf(out, "</table>\n")
	}

	// Caches: present only when the run carried the cross-job memo cache
	// (its counters then ride the registry sweep, and the bench gauge probe
	// adds the residency series).
	if hits, ok := r.lastValue("memo_hits_total"); ok {
		misses, _ := r.lastValue("memo_misses_total")
		inval, _ := r.lastValue("memo_invalidations_total")
		lost, _ := r.lastValue("memo_lost_total")
		evict, _ := r.lastValue("memo_evictions_total")
		memB, _ := r.lastValue("memo_cache_mem_bytes")
		dskB, _ := r.lastValue("memo_cache_disk_bytes")
		rate := 0.0
		if hits+misses > 0 {
			rate = hits / (hits + misses)
		}
		cls := "bad"
		if rate > 0 {
			cls = "ok"
		}
		fmt.Fprintf(out, "<h2>Caches</h2>\n<table><tr><th class=\"l\">cache</th><th>hit rate</th><th>hits</th><th>misses</th><th>invalidations</th><th>lost</th><th>evictions</th><th>mem bytes</th><th>disk bytes</th></tr>\n")
		fmt.Fprintf(out, `<tr><td class="l">cross-job memo</td><td class="%s">%.1f%%</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%s</td><td>%s</td></tr>`+"\n",
			cls, 100*rate, hits, misses, inval, lost, evict, promFloat(memB), promFloat(dskB))
		fmt.Fprintf(out, "</table>\n")
	}

	if len(d.TopSpans) > 0 {
		fmt.Fprintf(out, "<h2>Slowest phases</h2>\n<table><tr><th class=\"l\">component</th><th class=\"l\">span</th><th class=\"l\">phase</th><th>start</th><th>duration</th></tr>\n")
		for _, s := range d.TopSpans {
			fmt.Fprintf(out, `<tr><td class="l">%s</td><td class="l">%s</td><td class="l">%s</td><td>%.3fs</td><td>%.3fs</td></tr>`+"\n",
				html.EscapeString(s.Component), html.EscapeString(s.Name), html.EscapeString(s.Phase), s.Start, s.Seconds)
		}
		fmt.Fprintf(out, "</table>\n")
	}

	fmt.Fprintf(out, "<h2>Series</h2>\n<div class=\"grid\">\n")
	for _, name := range r.SeriesNames() {
		s := r.series[name]
		last, _ := s.Last()
		fmt.Fprintf(out, `<div class="card"><div class="name">%s</div><div class="last">%s</div>%s</div>`+"\n",
			html.EscapeString(name), promFloat(last.Value), sparkline(s))
	}
	fmt.Fprintf(out, "</div>\n")

	fmt.Fprintf(out, "</body></html>\n")
	return out.err
}

// sparkline renders one series as a fixed-size SVG polyline with min/max
// annotations. Coordinates are formatted to one decimal so the output is
// bit-stable across platforms.
func sparkline(s *Series) string {
	const width, height, pad = 280.0, 48.0, 2.0
	samples := s.Samples()
	if len(samples) == 0 {
		return `<svg width="280" height="48"></svg>`
	}
	lo, hi := samples[0].Value, samples[0].Value
	t0, t1 := samples[0].At, samples[len(samples)-1].At
	for _, p := range samples {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	span := hi - lo
	tspan := float64(t1 - t0)
	var b []byte
	b = append(b, `<svg width="280" height="48" viewBox="0 0 280 48"><polyline points="`...)
	for i, p := range samples {
		var x, y float64
		if tspan > 0 {
			x = pad + (width-2*pad)*float64(p.At-t0)/tspan
		} else {
			x = pad
		}
		if span > 0 {
			y = height - pad - (height-2*pad)*(p.Value-lo)/span
		} else {
			y = height / 2
		}
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, x, 'f', 1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, y, 'f', 1, 64)
	}
	b = append(b, `"/></svg><div class="name">min `...)
	b = append(b, promFloat(lo)...)
	b = append(b, ` &middot; max `...)
	b = append(b, promFloat(hi)...)
	b = append(b, `</div>`...)
	return string(b)
}

// errWriter latches the first write error so the renderer doesn't have to
// check every Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
