package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"mrapid/internal/pin"
)

// checkFigure pins a figure under its ID and the options it ran at: every
// point × column value in seconds as "<label>/<column>", each point's x, the
// notes, and the title, axis, column and point order. Nothing is run for the
// pin's sake; the figure is the one the test already computed.
func checkFigure(t *testing.T, fig *Figure, o Options) {
	t.Helper()
	o = o.normalized()
	labels := make([]string, len(fig.Points))
	rec := pin.Record{"title": fig.Title, "xlabel": fig.XLabel, "columns": strings.Join(fig.Columns, " ")}
	for i, p := range fig.Points {
		labels[i] = p.Label
		if _, dup := rec[p.Label+"/x"]; dup {
			t.Fatalf("%s: two points labelled %q", fig.ID, p.Label)
		}
		rec[p.Label+"/x"] = p.X
		for c, v := range p.Seconds {
			rec[p.Label+"/"+c] = v
		}
	}
	rec["points"] = strings.Join(labels, " ")
	for i, n := range fig.Notes {
		rec[fmt.Sprintf("note %d", i)] = n
	}
	pin.Check(t, fmt.Sprintf("%s scale=%g seed=%d", fig.ID, o.Scale, o.Seed), rec)
}

// checkWorkload pins every field of one RunThroughput result. The engine
// self-profile is host-timed and left out.
func checkWorkload(t *testing.T, key string, r *ThroughputResult) {
	t.Helper()
	c := *r
	c.Engine = nil
	pin.Check(t, "workload "+key, pin.Fields(c))
}

// TestGoldenCoversRegistry fails when a registered experiment has no pinned
// figure.
func TestGoldenCoversRegistry(t *testing.T) {
	if pin.Updating() {
		t.Skip("the table is being rewritten")
	}
	data, err := os.ReadFile(pin.Path)
	if err != nil {
		t.Fatal(err)
	}
	var tab pin.Table
	if err := json.Unmarshal(data, &tab); err != nil {
		t.Fatal(err)
	}
	for _, r := range Registry {
		found := false
		for run := range tab {
			found = found || strings.HasPrefix(run, r.ID+" ")
		}
		if !found {
			t.Errorf("experiment %q is not pinned", r.ID)
		}
	}
}
