package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	shuffleOn := map[string]string{"shuffle-service": "true"}
	cases := []struct {
		mode runMode
		set  []string
		bad  string            // the flag the error must name; "" = accepted
		vals map[string]string // values other than the flags' defaults
	}{
		{singleJob, []string{"job", "mode", "files", "size-mb", "trace", "report", "verbose", "repeat", "show-history", "series-out"}, "", nil},
		{singleJob, []string{"mode", "memo"}, "", map[string]string{"mode": "dplus"}},
		{workload, []string{"jobs", "tenants", "arrival", "policy", "series-out"}, "", nil},
		{queryJob, []string{"job", "query-exec", "verbose"}, "", nil},
		// The shared setup works in all three modes.
		{singleJob, []string{"cluster", "seed", "node-fail", "shuffle-service", "shuffle-codec", "memo"}, "", shuffleOn},
		{workload, []string{"cluster", "seed", "node-fail", "shuffle-service", "shuffle-codec", "memo"}, "", shuffleOn},
		{queryJob, []string{"cluster", "seed", "node-fail", "shuffle-service", "shuffle-codec", "memo"}, "", shuffleOn},

		// Only -mode speculative decides, and only a framework has a cache.
		{singleJob, []string{"mode", "repeat"}, "repeat", map[string]string{"mode": "dplus"}},
		{singleJob, []string{"mode", "show-history"}, "show-history", map[string]string{"mode": "hadoop"}},
		{singleJob, []string{"mode", "memo"}, "memo", map[string]string{"mode": "hadoop"}},
		{singleJob, []string{"mode", "memo"}, "memo", map[string]string{"mode": "uber"}},
		// A codec needs the service it configures.
		{singleJob, []string{"shuffle-codec"}, "shuffle-codec", map[string]string{"shuffle-codec": "lz"}},
		{workload, []string{"jobs", "shuffle-codec"}, "shuffle-codec", nil},
		{queryJob, []string{"job", "shuffle-service", "shuffle-codec"}, "shuffle-codec", map[string]string{"shuffle-service": "false"}},

		{workload, []string{"jobs", "mode"}, "mode", nil},
		{workload, []string{"jobs", "report"}, "report", nil},
		{workload, []string{"jobs", "trace"}, "trace", nil},
		{workload, []string{"jobs", "trace-out"}, "trace-out", nil},
		{workload, []string{"jobs", "metrics-out"}, "metrics-out", nil},
		{workload, []string{"jobs", "repeat"}, "repeat", nil},
		{workload, []string{"jobs", "show-history"}, "show-history", nil},
		{workload, []string{"jobs", "verbose"}, "verbose", nil},
		{workload, []string{"jobs", "files"}, "files", nil},
		{workload, []string{"jobs", "query-exec"}, "query-exec", nil},
		{queryJob, []string{"job", "mode"}, "mode", nil},
		{queryJob, []string{"job", "report"}, "report", nil},
		{queryJob, []string{"job", "trace"}, "trace", nil},
		{queryJob, []string{"job", "trace-out"}, "trace-out", nil},
		{queryJob, []string{"job", "metrics-out"}, "metrics-out", nil},
		{queryJob, []string{"job", "repeat"}, "repeat", nil},
		{queryJob, []string{"job", "show-history"}, "show-history", nil},
		{queryJob, []string{"job", "series-out"}, "series-out", nil},
		{queryJob, []string{"job", "jobs"}, "jobs", nil},
		{queryJob, []string{"job", "tenants"}, "tenants", nil},
		{singleJob, []string{"tenants"}, "tenants", nil},
		{singleJob, []string{"arrival"}, "arrival", nil},
		{singleJob, []string{"policy"}, "policy", nil},
		{singleJob, []string{"query-exec"}, "query-exec", nil},
	}
	for _, c := range cases {
		value := func(name string) string {
			if v, ok := c.vals[name]; ok {
				return v
			}
			return flag.Lookup(name).DefValue
		}
		err := checkFlags(c.mode, c.set, value)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s with %v: %v", modeNames[c.mode], c.set, err)
		case c.bad != "" && err == nil:
			t.Errorf("%s with %v: -%s accepted", modeNames[c.mode], c.set, c.bad)
		case c.bad != "" && !strings.Contains(err.Error(), "-"+c.bad+" "):
			t.Errorf("%s with %v: error %q does not name -%s", modeNames[c.mode], c.set, err, c.bad)
		}
	}
	// Every name in the table is a registered flag.
	for name := range honoured {
		if flag.Lookup(name) == nil {
			t.Errorf("honoured lists -%s, which is not a flag", name)
		}
	}
}

// runCLI sets the flags, runs the command's dispatch in-process, and returns
// what it printed.
func runCLI(t *testing.T, m runMode, args map[string]string) string {
	t.Helper()
	for name, v := range args {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		defer flag.Set(name, old)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	var out bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&out, r)
		copied <- err
	}()
	runErr := dispatch(m)
	os.Stdout = stdout
	w.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out.String()
}

// TestTraceShowsHDFSEvents: the dump of one small D+ WordCount carries the
// DFS's marks whether -trace comes alone or with -report (alone, the command
// used to wire its own log and forget the DFS), and holds at most the last N
// records either way (with an artifact flag it used to print the whole log
// under the "last N" header).
func TestTraceShowsHDFSEvents(t *testing.T) {
	const n = 20
	args := map[string]string{"job": "wordcount", "mode": "dplus", "files": "2", "size-mb": "1", "trace": fmt.Sprint(n)}
	for _, report := range []string{"false", "true"} {
		args["report"] = report
		out := runCLI(t, singleJob, args)
		_, dump, ok := strings.Cut(out, fmt.Sprintf("trace (last %d records):\n", n))
		if !ok {
			t.Fatalf("report=%s: no trace dump in:\n%s", report, out)
		}
		records, hdfs := 0, 0
		for _, line := range strings.Split(dump, "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || !strings.Contains(f[0], "s+") {
				break // the dump ends where the next section starts
			}
			records++
			if f[1] == "hdfs" {
				hdfs++
			}
		}
		if records == 0 || records > n {
			t.Errorf("report=%s: %d records under the last-%d header", report, records, n)
		}
		if hdfs == 0 {
			t.Errorf("report=%s: no hdfs marks in the trace dump", report)
		}
	}
}

// TestModesShareTheSetup drives the other two modes with the setup flags
// they used to drop: a node fault one second after cluster-ready (it used to
// hit the pool's bring-up and fail the run) and the memo cache.
func TestModesShareTheSetup(t *testing.T) {
	out := runCLI(t, workload, map[string]string{
		"jobs": "6", "tenants": "2", "node-fail": "node-02@1s:8s", "memo": "true",
	})
	if !strings.Contains(out, "memo cache: hits=") {
		t.Errorf("workload mode ignored -memo:\n%s", out)
	}
	out = runCLI(t, queryJob, map[string]string{
		"job": "query", "query-exec": "both", "node-fail": "node-01@4s:20s", "memo": "true",
	})
	for _, want := range []string{"chain 4 stages", "dag   4 stages", "max 1 in flight", "memo cache: hits=", "identical result rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("query mode output lacks %q:\n%s", want, out)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile leave a profile each behind
// one query run, and a path that cannot be created fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	runCLI(t, queryJob, map[string]string{"job": "query", "query-exec": "dag", "cpuprofile": cpu, "memprofile": mem})
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("no profile at %s (%v)", path, err)
		}
	}
	if err := flag.Set("cpuprofile", filepath.Join(dir, "missing", "cpu.prof")); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("cpuprofile", "")
	if err := dispatch(queryJob); err == nil {
		t.Error("an uncreatable -cpuprofile path did not fail the run")
	}
}

// freshFlags returns a new flag set holding each of the command's flags at
// its default, for parsing arguments without touching the command's own.
func freshFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("mrapid", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		v := reflect.New(reflect.TypeOf(f.Value).Elem()).Interface().(flag.Value)
		if err := v.Set(f.DefValue); err != nil {
			panic(err)
		}
		fs.Var(v, f.Name, f.Usage)
	})
	return fs
}

// readme is the repository's README.
func readme(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// readmeRuns returns the arguments of every README line that starts with
// `go run ./cmd/mrapid `, with a line ending in a backslash joined to the
// next and a trailing # comment dropped: the lines CI's "CLI smoke" step
// runs. Quotes are stripped; no quoted argument holds a space.
func readmeRuns(t *testing.T) [][]string {
	t.Helper()
	var runs [][]string
	for _, line := range strings.Split(strings.ReplaceAll(readme(t), "\\\n", ""), "\n") {
		rest, ok := strings.CutPrefix(line, "go run ./cmd/mrapid ")
		if !ok {
			continue
		}
		rest, _, _ = strings.Cut(rest, "#")
		args := strings.Fields(rest)
		for i, a := range args {
			args[i] = strings.Trim(a, "'")
		}
		runs = append(runs, args)
	}
	return runs
}

// Every mrapid command README names parses with the command's flags and
// passes the check that would otherwise exit 2, and README runs no other
// program than the two commands.
func TestReadmeRunsParse(t *testing.T) {
	runs := readmeRuns(t)
	if len(runs) < 10 {
		t.Fatalf("README runs mrapid %d times; the extraction lost lines", len(runs))
	}
	for _, args := range runs {
		fs := freshFlags()
		if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
			t.Errorf("mrapid %s: %v (left over: %q)", strings.Join(args, " "), err, fs.Args())
			continue
		}
		if _, err := checkArgs(fs); err != nil {
			t.Errorf("mrapid %s: %v", strings.Join(args, " "), err)
		}
	}
	for _, m := range regexp.MustCompile(`go run ([./\w-]+)`).FindAllStringSubmatch(readme(t), -1) {
		if m[1] != "./cmd/mrapid" && m[1] != "./cmd/mrapid-bench" {
			t.Errorf("README runs %s, which no test checks", m[1])
		}
	}
}

// README's flag table lists every flag honoured limits, with the modes it
// allows, and no other.
func TestReadmeFlagTable(t *testing.T) {
	const header = "| flags | one job | `-jobs N` | `-job query` |"
	_, table, ok := strings.Cut(readme(t), header+"\n|---|---|---|---|\n")
	if !ok {
		t.Fatalf("README has no flag table under %q", header)
	}
	got := map[string]runMode{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) != 6 {
			break // the table ends at the first line that is not a row
		}
		var modes runMode
		for i, m := range []runMode{singleJob, workload, queryJob} {
			if strings.TrimSpace(cells[2+i]) == "✓" {
				modes |= m
			}
		}
		for _, name := range strings.Fields(strings.Trim(strings.TrimSpace(cells[1]), "`")) {
			got[strings.TrimPrefix(name, "-")] = modes
		}
	}
	if !reflect.DeepEqual(got, honoured) {
		t.Errorf("README's flag table says %v, honoured says %v", got, honoured)
	}
}
