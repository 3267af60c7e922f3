package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"mrapid/internal/bench"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		scale                         float64
		codecSet, service, throughput bool
		seriesOut                     string
		bad                           string // the flag the error must name; "" = accepted
	}{
		{1, false, false, true, "", ""},
		{0.05, true, true, true, "", ""},
		{0, false, false, true, "", "scale"},
		{-1, false, false, true, "", "scale"},
		{1, true, false, true, "", "shuffle-codec"},
		{1, false, false, true, "x.prom", ""},
		{1, false, false, false, "", ""},
		{1, false, false, false, "x.prom", "series-out"},
	}
	for _, c := range cases {
		opts := bench.Options{ShuffleService: c.service, SeriesOut: c.seriesOut}
		err := checkFlags(c.scale, c.codecSet, c.throughput, opts)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: %v", c, err)
		case c.bad != "" && err == nil:
			t.Errorf("%+v: -%s accepted", c, c.bad)
		case c.bad != "" && !strings.Contains(err.Error(), "-"+c.bad+" "):
			t.Errorf("%+v: error %q does not name -%s", c, err, c.bad)
		}
	}
}

// freshFlags returns a new flag set holding each of the command's flags at
// its default, for parsing arguments without touching the command's own.
func freshFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("mrapid-bench", flag.ContinueOnError)
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

// Every mrapid-bench command README names — a line starting with
// `go run ./cmd/mrapid-bench`, its trailing # comment dropped — parses with
// the command's flags, selects registered experiments and passes the check
// that would otherwise exit 2.
func TestReadmeRunsParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "go run ./cmd/mrapid-bench")
		if !ok || rest != "" && rest[0] != ' ' {
			continue
		}
		rest, _, _ = strings.Cut(rest, "#")
		args := strings.Fields(rest)
		for i, a := range args {
			args[i] = strings.Trim(a, "'")
		}
		runs++
		fs := freshFlags()
		if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
			t.Errorf("mrapid-bench%s: %v (left over: %q)", rest, err, fs.Args())
			continue
		}
		if _, err := checkArgs(fs); err != nil {
			t.Errorf("mrapid-bench%s: %v", rest, err)
		}
	}
	if runs < 5 {
		t.Fatalf("README runs mrapid-bench %d times; the extraction lost lines", runs)
	}
}
