package pin

import (
	"reflect"
	"testing"
)

// The printer names the run and the field, and gives Δ and % for numbers.
func TestDiff(t *testing.T) {
	old := Table{
		"fig7 scale=1": {"1/dplus": 4.0, "mode": "dplus", "gone": true, "zero": 0},
		"dropped run":  {"x": 1},
	}
	new := Table{
		"fig7 scale=1": {"1/dplus": 4.5, "mode": "uplus", "added": 2, "zero": 3},
	}
	want := []string{
		`dropped run x: 1 → none`,
		`fig7 scale=1 1/dplus: 4 → 4.5 (+0.5, +12.5%)`,
		`fig7 scale=1 added: none → 2`,
		`fig7 scale=1 gone: true → none`,
		`fig7 scale=1 mode: "dplus" → "uplus"`,
		`fig7 scale=1 zero: 0 → 3 (+3)`,
	}
	if got := Diff(old, new); !reflect.DeepEqual(got, want) {
		t.Errorf("Diff =\n%q\nwant\n%q", got, want)
	}
	if got := Diff(new, new); got != nil {
		t.Errorf("Diff of a table with itself = %q", got)
	}
}

func TestFieldsFlattensNestedValues(t *testing.T) {
	v := struct {
		Jobs    int
		Tenants map[string]struct{ Wait float64 }
		Order   []string
	}{3, map[string]struct{ Wait float64 }{"t0": {1.5}}, []string{"t0"}}
	got := Diff(Table{"r": Fields(v)}, Table{"r": {"Jobs": 3, "Tenants.t0.Wait": 1.5, "Order.0": "t0"}})
	if got != nil {
		t.Errorf("Fields differs from the hand-flattened record: %q", got)
	}
}

// TestCheck pins one record in this package's own table, which shows the
// file's shape.
func TestCheck(t *testing.T) {
	Check(t, "example run", Record{
		"elapsed_s": 4.373972954,
		"output":    Digest([]byte("word\t1\n")),
		"pool_hit":  true,
		"tasks":     5,
	})
}
