package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The limits are the ones the driver refuses a BENCHMARK.json outside of.
func TestCatalogueWithinContract(t *testing.T) {
	if n := len(workloadList); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(e2eMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64} starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadList {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.run == nil {
			t.Errorf("workload %s cannot run", w.Name)
		}
	}
	setup := false
	for _, m := range e2eMetrics {
		name("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Exact != (m.Unit == vsec) {
			t.Errorf("%s: exactly the virtual-clock metrics are deterministic", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range e2eMetrics {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Errorf("no setup_s metric with unit s, lower is better")
	}
	for _, m := range layerMetrics {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Kind < 1 || m.Kind > 4 {
			t.Errorf("%s: kind %d", m.Name, m.Kind)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("%s: a per-layer metric is named layer.metric", m.Name)
		}
		if twin := strings.TrimSuffix(m.Name, "_allocs"); twin != m.Name && !seen[twin+"_ns"] && !seen[twin+"_us"] {
			t.Errorf("%s has no latency probe beside it", m.Name)
		}
	}
}

// BENCHMARK.json is generated from the catalogue (-benchmark-json); the
// committed file must not drift from what the binary emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(committed, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with\n\tgo run . -benchmark-json > ../BENCHMARK.json\ncommitted:\n%s\ncatalogue:\n%s", committed, want)
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
}

// Every name a run can put in its last line comes from the catalogue, and
// a run fills every catalogue name; checkEmitted is what enforces the
// second half after a suite run, tested here on made-up results.
func TestCheckEmitted(t *testing.T) {
	full := map[string]float64{}
	for _, m := range layerMetrics {
		full[m.Name] = 1
	}
	if err := checkEmitted(full, true); err != nil {
		t.Errorf("a full set of names: %v", err)
	}
	delete(full, "sim.events")
	if err := checkEmitted(full, true); err == nil || !strings.Contains(err.Error(), "sim.events") {
		t.Errorf("a catalogue metric nothing emitted: got %v", err)
	}
	if err := checkEmitted(full, false); err != nil {
		t.Errorf("one workload need not fill every name: %v", err)
	}
	full["sim.evnets"] = 1
	if err := checkEmitted(full, false); err == nil || !strings.Contains(err.Error(), "sim.evnets") {
		t.Errorf("an emitted name the catalogue lacks: got %v", err)
	}
}
