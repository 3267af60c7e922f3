package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		scale             float64
		codecSet, service bool
		bad               string // the flag the error must name; "" = accepted
	}{
		{1, false, false, ""},
		{0.05, true, true, ""},
		{0, false, false, "scale"},
		{-1, false, false, "scale"},
		{1, true, false, "shuffle-codec"},
	}
	for _, c := range cases {
		err := checkFlags(c.scale, c.codecSet, c.service)
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
