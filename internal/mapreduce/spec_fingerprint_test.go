package mapreduce

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"mrapid/internal/hdfs"
)

// splitFunc is the type of JobSpec.MapFor.
type splitFunc = func(string, *Lane) (MapFunc, func(CountedEmit))

// Named package-level transforms: distinct symbols with identical shapes,
// which SpecFingerprint must tell apart.
func fpSplitA(string, *Lane) (MapFunc, func(CountedEmit)) {
	return func(_, line []byte, emit Emit) { emit(line, nil) }, nil
}
func fpSplitB(string, *Lane) (MapFunc, func(CountedEmit)) {
	return func(_, line []byte, emit Emit) { emit(nil, line) }, nil
}
func fpReduce(key []byte, _ Values, emit Emit)  { emit(key, nil) }
func fpCombine(key []byte, _ Values, emit Emit) { emit(key, nil) }
func fpSplitCost(*hdfs.Split) time.Duration     { return time.Second }

// fpMakeGrep returns a parameterized per-split closure from a single
// definition site, the shape a query compiler's predicate factory has.
// noinline matters: an inlined factory would give each call site its own
// closure symbol, hiding exactly the collision this file pins down.
//
//go:noinline
func fpMakeGrep(word string) splitFunc {
	return func(string, *Lane) (MapFunc, func(CountedEmit)) {
		return func(_, line []byte, emit Emit) { emit([]byte(word), line) }, nil
	}
}

func fpSpec() *JobSpec {
	return &JobSpec{
		Name:       "fp",
		JobKey:     "fp",
		InputFiles: []string{"/in/a", "/in/b"},
		OutputFile: "/out",
		NumReduces: 2,
		Format:     LineFormat{},
		MapFor:     fpSplitA,
		Reduce:     fpReduce,
		MapRate:    1e6,
		ReduceRate: 2e6,
	}
}

// TestSpecFingerprintSensitivity mirrors TestFingerprintSensitivity for the
// job-spec fingerprint: identical specs agree, and every content change —
// transform identity, parameters, input set — moves the fingerprint.
func TestSpecFingerprintSensitivity(t *testing.T) {
	base := fpSpec()
	if got, again := base.SpecFingerprint(), fpSpec().SpecFingerprint(); got != again {
		t.Fatalf("identical specs disagree: %s vs %s", got, again)
	}

	// Same shape, different program: the memo fingerprint must separate
	// them.
	other := fpSpec()
	other.MapFor = fpSplitB
	if base.SpecFingerprint() == other.SpecFingerprint() {
		t.Fatal("SpecFingerprint blind to the map function's identity")
	}

	mutations := map[string]func(*JobSpec){
		"combiner added":  func(s *JobSpec) { s.Combine = fpCombine },
		"reduce count":    func(s *JobSpec) { s.NumReduces = 3 },
		"map rate":        func(s *JobSpec) { s.MapRate = 3e6 },
		"reduce rate":     func(s *JobSpec) { s.ReduceRate = 1e6 },
		"split cost set":  func(s *JobSpec) { s.SplitCost = fpSplitCost },
		"input added":     func(s *JobSpec) { s.InputFiles = append(s.InputFiles, "/in/c") },
		"input removed":   func(s *JobSpec) { s.InputFiles = s.InputFiles[:1] },
		"input renamed":   func(s *JobSpec) { s.InputFiles = []string{"/in/a", "/in/B"} },
		"partitioner set": func(s *JobSpec) { s.Partition = HashPartition },
		"format to fixed": func(s *JobSpec) { s.Format = FixedFormat{KeyLen: 10, ValLen: 90} },
		"reduce swapped":  func(s *JobSpec) { s.Reduce = fpCombine },
	}
	for name, mutate := range mutations {
		s := fpSpec()
		mutate(s)
		if s.SpecFingerprint() == base.SpecFingerprint() {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}

	// Input *order* is not part of the computation: splits are planned per
	// file, so a permuted list is the same job.
	perm := fpSpec()
	perm.InputFiles = []string{"/in/b", "/in/a"}
	if perm.SpecFingerprint() != base.SpecFingerprint() {
		t.Fatal("input order changed the fingerprint")
	}

	// Name/JobKey are submission identity, not computation: two tenants
	// submitting the same program over the same files must share an entry.
	renamed := fpSpec()
	renamed.Name, renamed.JobKey = "fp#2", "tenant-b"
	if renamed.SpecFingerprint() != base.SpecFingerprint() {
		t.Fatal("submission identity leaked into the fingerprint")
	}
}

// fpGrep is a transform with state, used as a method value: every receiver
// shares the symbol "…fpGrep.Split-fm".
type fpGrep struct{ word string }

func (g fpGrep) Split(string, *Lane) (MapFunc, func(CountedEmit)) {
	return func(_, line []byte, emit Emit) { emit([]byte(g.word), line) }, nil
}

// TestIdentityNamesCapturedState pins the closure rule: named package-level
// transforms are their own identity; closures and method values (whose
// symbols collapse to one per definition site whatever they capture) are
// reusable only under a ClosureSig, which then tells them apart.
func TestIdentityNamesCapturedState(t *testing.T) {
	if _, ok := fpSpec().Identity(); !ok {
		t.Fatal("spec with named transforms reported not reusable")
	}
	for name, mapFor := range map[string][2]splitFunc{
		"closure":      {fpMakeGrep("ERROR"), fpMakeGrep("WARN")},
		"method value": {fpGrep{"ERROR"}.Split, fpGrep{"WARN"}.Split},
	} {
		s1, s2 := fpSpec(), fpSpec()
		s1.MapFor, s2.MapFor = mapFor[0], mapFor[1]
		id1, ok1 := s1.Identity()
		id2, ok2 := s2.Identity()
		if id1 != id2 {
			t.Fatalf("%s: expected the symbol collision the rule guards against", name)
		}
		if ok1 || ok2 {
			t.Fatalf("%s: a transform with unnamed captured state reported reusable", name)
		}
		s1.ClosureSig, s2.ClosureSig = "grep[ERROR]", "grep[WARN]"
		id1, ok1 = s1.Identity()
		id2, ok2 = s2.Identity()
		if !ok1 || !ok2 || id1 == id2 {
			t.Fatalf("%s: ClosureSig did not make the two specs reusable and distinct", name)
		}
	}
	// A nested closure's symbol ends in a bare number, not "funcN".
	for _, sym := range []string{"p.F.func1", "p.F.func1.2", "p.glob..func3", "p.T.Map-fm", "a/b.c/p.F.func12"} {
		if !capturesState(sym) {
			t.Errorf("%s: not recognised as captured state", sym)
		}
	}
	for _, sym := range []string{"", "p.wordCountMap", "p.funcy", "p.T.Map", "a/func1.F"} {
		if capturesState(sym) {
			t.Errorf("%s: named code taken for captured state", sym)
		}
	}
}

// TestIdentityIsTheFmtStream pins the allocation-free writer to the stream it
// replaced, FNV-1a over the fmt rendering below: memo keys — and with them
// where disk-tier entries are placed — do not move. The stream lost its
// "|map=" field and its fixed-cost term when JobSpec.Map and MapFixedCost
// were deleted, which moved every key once.
func TestIdentityIsTheFmtStream(t *testing.T) {
	old := func(s *JobSpec) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "%T|%d|%g|%g", s.Format, s.NumReduces, s.MapRate, s.ReduceRate)
		fmt.Fprintf(h, "|combine=%s|reduce=%s|part=%s|mapfor=%s|splitcost=%s",
			funcSymbol(s.Combine), funcSymbol(s.Reduce),
			funcSymbol(s.Partition), funcSymbol(s.MapFor), funcSymbol(s.SplitCost))
		inputs := slices.Clone(s.InputFiles)
		slices.Sort(inputs)
		for _, in := range inputs {
			fmt.Fprintf(h, "|in=%s", in)
		}
		return fmt.Sprintf("spec-%016x", h.Sum64())
	}
	for _, mutate := range []func(*JobSpec){
		func(*JobSpec) {},
		func(s *JobSpec) { s.MapRate, s.ReduceRate = 6.5e-7, 1e21 },
		func(s *JobSpec) { s.SplitCost, s.NumReduces = fpSplitCost, 12 },
		func(s *JobSpec) { s.Format, s.Combine = FixedFormat{KeyLen: 10, ValLen: 90}, fpCombine },
		func(s *JobSpec) { s.InputFiles = []string{"/z", "/a/b", "/m"} },
	} {
		s := fpSpec()
		mutate(s)
		if got, want := s.SpecFingerprint(), old(s); got != want {
			t.Errorf("fingerprint %s, the fmt stream gives %s", got, want)
		}
	}
	spec := fpSpec()
	if n := testing.AllocsPerRun(100, func() { spec.Identity() }); n != 0 {
		t.Fatalf("Identity allocates %v times", n)
	}
}
