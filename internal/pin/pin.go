// Package pin is the pinned-run table: the one way a test pins behaviour.
//
// A test names each run it pins by a run key — setup, shape or variant,
// workload, fault — and describes the run by a Record of named fields:
// virtual completion, output digest, engine events, allocations, the
// decision record, or a figure's point × column seconds. All records of a
// package live in its testdata/pinned.json, sorted and indented, one field
// per line.
//
// Check compares a run's record with the pinned one and names every field
// that moved. With -update it rewrites the file from the run instead:
//
//	go test ./internal/core/ -update
//	git diff -- '*/pinned.json'
//
// and reviewing that diff is the re-pin. Diff is the printer both use.
//
// The package imports nothing from this module, so the in-package tests of
// any package can import it.
package pin

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Path is where a package's records live, relative to the package directory
// its tests run in.
const Path = "testdata/pinned.json"

var update = flag.Bool("update", false, "rewrite "+Path+" from this run instead of checking it")

// Updating reports whether this run rewrites the table instead of checking it.
func Updating() bool { return *update }

// A Record is one run's pinned fields by name. Values are numbers, strings or
// booleans; two values are equal when their JSON encodings are, so a float64
// pins bit for bit.
type Record map[string]any

// A Table maps run keys to records.
type Table map[string]Record

var (
	mu     sync.Mutex
	loaded Table
)

// Check compares rec with the record pinned under run and fails t naming
// every field that moved. With -update it pins rec instead and logs what
// moved.
func Check(t testing.TB, run string, rec Record) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	tab, err := load()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := tab[run]
	moved := Diff(Table{run: want}, Table{run: rec})
	switch {
	case *update:
		tab[run] = rec
		if err := save(tab); err != nil {
			t.Fatal(err)
		}
		for _, line := range moved {
			t.Log("re-pinned " + line)
		}
	case !ok:
		t.Errorf("pin: %s has no run %q; run with -update and review the diff", Path, run)
	case len(moved) > 0:
		t.Errorf("pin: %d field(s) moved:\n\t%s", len(moved), strings.Join(moved, "\n\t"))
	}
}

// load reads the package's table once per test binary. A full -update run
// (no -run, -skip or -short) starts from an empty table, so a run no test
// checks any more drops out of the file.
func load() (Table, error) {
	if loaded != nil {
		return loaded, nil
	}
	tab := Table{}
	if !*update || !fullRun() {
		data, err := os.ReadFile(Path)
		switch {
		case err == nil:
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			if err := dec.Decode(&tab); err != nil {
				return nil, fmt.Errorf("pin: %s: %v", Path, err)
			}
		case !*update || !os.IsNotExist(err):
			return nil, fmt.Errorf("pin: %v", err)
		}
	}
	loaded = tab
	return tab, nil
}

func fullRun() bool {
	for _, name := range []string{"test.run", "test.skip"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			return false
		}
	}
	return !testing.Short()
}

func save(tab Table) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tab); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(Path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(Path, buf.Bytes(), 0o644)
}

// Diff lists every field whose value differs between two tables, in run and
// then field order, one line each:
//
//	run field: old → new (Δ, %)
//
// Δ and % appear when both values are numbers (% when old is not zero); a
// field missing on one side reads "none" there.
func Diff(old, new Table) []string {
	var lines []string
	for _, run := range keys(old, new) {
		for _, field := range keys(old[run], new[run]) {
			a, b := text(old[run], field), text(new[run], field)
			if a == b {
				continue
			}
			line := fmt.Sprintf("%s %s: %s → %s", run, field, a, b)
			x, errA := strconv.ParseFloat(a, 64)
			y, errB := strconv.ParseFloat(b, 64)
			switch {
			case errA != nil || errB != nil:
			case x == 0:
				line += fmt.Sprintf(" (%+.6g)", y-x)
			default:
				line += fmt.Sprintf(" (%+.6g, %+.3g%%)", y-x, (y-x)/x*100)
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// keys returns the union of the maps' keys, sorted.
func keys[M ~map[string]V, V any](ms ...M) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// text is a field's value as its JSON encoding, or "none" when rec lacks it.
func text(rec Record, field string) string {
	v, ok := rec[field]
	if !ok {
		return "none"
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return fmt.Sprint(v)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// Fields flattens v's JSON encoding into a Record: nested objects and arrays
// become dotted field names ("Tenants.tenant-0.Jobs", "Burn.1").
func Fields(v any) Record {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("pin: %v", err))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		panic(fmt.Sprintf("pin: %v", err))
	}
	rec := Record{}
	flatten(rec, "", tree)
	return rec
}

func flatten(rec Record, name string, v any) {
	join := func(k string) string {
		if name == "" {
			return k
		}
		return name + "." + k
	}
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			flatten(rec, join(k), x)
		}
	case []any:
		for i, x := range v {
			flatten(rec, join(strconv.Itoa(i)), x)
		}
	default:
		rec[name] = v
	}
}

// Seconds is d in seconds, rounded once, so a pinned duration reads as its
// nanoseconds do: 16689558473ns is 16.689558473, where d.Seconds() gives
// 16.689558472999998.
func Seconds(d time.Duration) float64 { return float64(d) / 1e9 }

// Digest is the FNV-64a of the concatenated data, as 16 hex digits: the
// output digest of a run's bytes.
func Digest(data ...[]byte) string {
	h := fnv.New64a()
	for _, b := range data {
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
