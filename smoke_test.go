package mrapid_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mrapid/internal/bench"
)

// TestRegistrySmoke checks every registered experiment is wired (ID, runner,
// description) and that the cheapest one actually runs, so `go test ./...`
// exercises the top-level harness without paying for a full sweep.
func TestRegistrySmoke(t *testing.T) {
	if len(bench.Registry) < 11 {
		t.Fatalf("registry has %d experiments", len(bench.Registry))
	}
	seen := map[string]bool{}
	for _, r := range bench.Registry {
		if r.ID == "" || r.Run == nil || r.Short == "" {
			t.Fatalf("registry entry %+v incomplete", r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment %q", r.ID)
		}
		seen[r.ID] = true
		if _, ok := bench.Lookup(r.ID); !ok {
			t.Fatalf("Lookup(%q) failed", r.ID)
		}
	}
	fig, err := bench.TableII(bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := bench.Render(&b, fig); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A1", "A2", "A3", "0.36"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("rendered Table II missing %q", want)
		}
	}
}

// TestDesignNamesEveryPackage keeps DESIGN.md §3 an inventory: a directory
// under internal/ or cmd/ that the section does not name fails the build.
func TestDesignNamesEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := "`" + root + "/" + e.Name() + "`"; e.IsDir() && !strings.Contains(section, name) {
				t.Errorf("DESIGN.md §3 does not name %s", name)
			}
		}
	}
}

// TestDesignWhereBytesLive keeps DESIGN.md §3.2 honest in both directions:
// the section must name each mechanism of the residency layer, and each
// name must still be declared where the section says it is.
func TestDesignWhereBytesLive(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### 3.2 Where bytes live\n")
	if !ok {
		t.Fatal("DESIGN.md has no section 3.2 \"Where bytes live\"")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, m := range []struct{ name, file, decl string }{
		{"`sim.Join`", "internal/sim/device.go", "type Join struct"},
		{"`topology.Resident`", "internal/topology/resident.go", "type Resident struct"},
		{"`Resident.Readable`", "internal/topology/resident.go", "func (r Resident) Readable() bool"},
		{"`Resident.Transport(reader)`", "internal/topology/resident.go", "func (r Resident) Transport("},
		{"`Cluster.Transfer(src, dst, diskBytes, wireBytes,", "internal/topology/resident.go", "func (c *Cluster) Transfer(src, dst *Node, diskBytes, wireBytes int64, done func())"},
		{"`Cluster.Read(resident, reader, n, rpc, lost,", "internal/topology/resident.go", "func (c *Cluster) Read(r Resident, dst *Node, n int64, rpc time.Duration, lost error, done func(error))"},
		{"`topology.Budget`", "internal/topology/resident.go", "type Budget struct"},
		{"`Runtime.CheckResidency`", "internal/mapreduce/residency.go", "func (rt *Runtime) CheckResidency() error"},
		{"`Framework.CheckResidency`", "internal/core/memo.go", "func (f *Framework) CheckResidency() error"},
	} {
		if !strings.Contains(section, m.name) {
			t.Errorf("DESIGN.md §3.2 does not name %s", m.name)
		}
		src, err := os.ReadFile(m.file)
		if err != nil || !strings.Contains(string(src), m.decl) {
			t.Errorf("DESIGN.md §3.2 names %s, but %s no longer declares %q", m.name, m.file, m.decl)
		}
	}
}

// TestDocsNameDeclaredTests keeps the docs' citations live: every Test…,
// Benchmark… or Fuzz… name DESIGN.md, README.md or EXPERIMENTS.md cites must
// be declared by some test file in the tree, or be the prefix of a declared
// name (the `-run` forms, such as TestRelaunchedPooledJob or BenchmarkFig).
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	covered := func(name string) bool {
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			if !covered(name) {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
	}
}
