package main

import (
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
