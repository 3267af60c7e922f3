package flight

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"mrapid/internal/metrics"
	"mrapid/internal/sim"
)

// WritePrometheus dumps the recorder in Prometheus text exposition format:
// every retained sample of every virtual-clock series, with millisecond
// timestamps on the virtual timeline, followed by the registry's
// histograms (cumulative _bucket/_sum/_count form). The full history makes
// the dump double as the recorder's canonical series artifact — two
// deterministic runs must produce byte-identical output — while still
// being scrapeable/parsable as Prometheus data.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	typed := make(map[string]bool)
	writeType := func(bare, kind string) {
		if !typed[bare] {
			typed[bare] = true
			bw.WriteString("# TYPE " + bare + " " + kind + "\n")
		}
	}

	// Series, grouped under their bare metric name so each # TYPE header
	// is emitted once, keys and groups both sorted.
	for _, key := range r.SeriesNames() {
		name, labels := metrics.ParseSeries(key)
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		writeType(name, kind)
		line := name + promLabels(labels)
		for _, s := range r.series[key].Samples() {
			bw.WriteString(line)
			bw.WriteByte(' ')
			bw.WriteString(promFloat(s.Value))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(promMillis(s.At), 10))
			bw.WriteByte('\n')
		}
	}

	// Registry histograms, in the cumulative form Prometheus expects.
	hists := r.reg.Histograms()
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h := hists[key]
		name, labels := metrics.ParseSeries(key)
		writeType(name, "histogram")
		var cum int64
		for i, bound := range h.Buckets {
			cum += h.Counts[i]
			bw.WriteString(name + "_bucket" + promLabels(append(labels, metrics.Label{Key: "le", Value: promFloat(bound)})))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(cum, 10))
			bw.WriteByte('\n')
		}
		bw.WriteString(name + "_bucket" + promLabels(append(labels, metrics.Label{Key: "le", Value: "+Inf"})))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(h.Count, 10))
		bw.WriteByte('\n')
		bw.WriteString(name + "_sum" + promLabels(labels) + " " + promFloat(h.Sum) + "\n")
		bw.WriteString(name + "_count" + promLabels(labels) + " " + strconv.FormatInt(h.Count, 10) + "\n")
	}

	return bw.Flush()
}

// promMillis converts a virtual instant to the exposition format's
// millisecond timestamp.
func promMillis(t sim.Time) int64 { return int64(t) / 1e6 }

// promFloat renders a float the way Prometheus text format does.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders a label set as {k="v",...} with exposition-format
// escaping, or "" when empty. The input labels carry the already-unescaped
// values from metrics.ParseSeries, so a tenant named `a=b` round-trips
// into tenant="a=b" here rather than aliasing another series.
func promLabels(labels []metrics.Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promLabelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
