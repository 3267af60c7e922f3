package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// update rewrites testdata/golden.json from whatever the run computes:
//
//	go test ./internal/bench/ -update
var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

const goldenPath = "testdata/golden.json"

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return golden
		}
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return golden
}

// checkGolden pins v, a value the existing shape, smoke and determinism
// tests already computed, as the FNV-64a of its JSON. Nothing is run for
// the golden's sake, so it costs a hash per call.
func checkGolden(t *testing.T, key string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	got := fmt.Sprintf("%016x", h.Sum64())

	golden := readGolden(t)
	if *update {
		golden[key] = got
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[key]
	if !ok {
		t.Fatalf("golden: no entry %q (run with -update and review the diff)", key)
	}
	if got != want {
		t.Errorf("golden: %q = %s, want %s\n%s", key, got, want, data)
	}
}

// checkFigure pins a registered experiment's whole Figure under its ID and
// the options it ran at.
func checkFigure(t *testing.T, fig *Figure, o Options) {
	t.Helper()
	o = o.normalized()
	checkGolden(t, fmt.Sprintf("%s scale=%g seed=%d", fig.ID, o.Scale, o.Seed), fig)
}

// checkWorkload pins one RunThroughput result. The engine self-profile is
// host-timed and left out.
func checkWorkload(t *testing.T, key string, r *ThroughputResult) {
	t.Helper()
	c := *r
	c.Engine = nil
	checkGolden(t, "workload "+key, c)
}

// TestGoldenCoversRegistry fails when a registered experiment has no pinned
// Figure.
func TestGoldenCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("golden is being rewritten")
	}
	golden := readGolden(t)
	for _, r := range Registry {
		found := false
		for key := range golden {
			if strings.HasPrefix(key, r.ID+" ") {
				found = true
			}
		}
		if !found {
			t.Errorf("golden: experiment %q is not pinned", r.ID)
		}
	}
}
