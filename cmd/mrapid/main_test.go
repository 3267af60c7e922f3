package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		{singleJob, []string{"job", "mode", "files", "size-mb", "trace", "report", "verbose", "repeat", "show-history", "dash-out"}, "", nil},
		{singleJob, []string{"mode", "memo"}, "", map[string]string{"mode": "dplus"}},
		{workload, []string{"jobs", "tenants", "arrival", "policy", "series-out", "dash-out"}, "", nil},
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
		{queryJob, []string{"job", "dash-out"}, "dash-out", nil},
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
