package main

import (
	"sort"
	"strings"
	"testing"
)

// TestRegisteredNamesSorted pins the unknown -exp listing contract: every
// registered experiment plus the special modes, in sorted order, with no
// duplicates — so the help output stays scannable as experiments accrue.
func TestRegisteredNamesSorted(t *testing.T) {
	names := registeredNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registered names not sorted: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registered name %q", n)
		}
		seen[n] = true
	}
	for _, e := range experimentOrder {
		if !seen[e.name] {
			t.Fatalf("experiment %q missing from the listing", e.name)
		}
	}
	for _, special := range []string{"single", "all"} {
		if !seen[special] {
			t.Fatalf("special mode %q missing from the listing", special)
		}
	}
	if len(names) != len(experimentOrder)+2 {
		t.Fatalf("listing has %d names, want %d experiments + 2 special modes", len(names), len(experimentOrder))
	}
}

// TestTelemetryFlagsOptions: no consumer → nil options → telemetry stays
// disabled (the zero-cost default); any consumer → options with the chosen
// interval.
func TestTelemetryFlagsOptions(t *testing.T) {
	if (telemetryFlags{Every: 100}).options() != nil {
		t.Fatal("options non-nil with no telemetry consumer")
	}
	for _, tf := range []telemetryFlags{
		{Path: "out.csv", Every: 50},
		{Phases: true, Every: 50},
		{Addr: ":0", Every: 50},
	} {
		opts := tf.options()
		if opts == nil || opts.SampleEvery != 50 {
			t.Fatalf("options for %+v = %+v", tf, opts)
		}
	}
	if (telemetryFlags{}).options() != nil {
		t.Fatal("zero flags yielded options")
	}
}

// TestValidateClusterFlags pins every cluster-flag rejection — each names
// the offending flags and what they need — and the combinations that pass.
func TestValidateClusterFlags(t *testing.T) {
	for _, c := range []struct {
		name  string
		set   []string
		exp   string
		dcs   int
		route string
		want  string // error substring; "" = accepted
	}{
		{"cluster flags outside single", []string{"dcs", "dcpar"}, "fig7", 4, "round-robin", "-dcs, -dcpar: cluster flags apply only to -exp single (got -exp fig7)"},
		{"no datacenters", []string{"dcs"}, "single", 0, "round-robin", "-dcs 0: a cluster needs at least one datacenter"},
		{"route on one DC", []string{"route"}, "single", 1, "pet-aware", "-route: cluster flags require -dcs > 1"},
		{"dcpar on one DC", []string{"dcpar"}, "single", 1, "round-robin", "-dcpar: cluster flags require -dcs > 1"},
		{"unknown route", []string{"dcs", "route"}, "single", 4, "bogus", "unknown dispatch policy \"bogus\""},
		{"dcpar behind pet-aware", []string{"dcs", "route", "dcpar"}, "single", 4, "pet-aware", "-dcpar -route pet-aware: parallel stepping needs a state-free route"},
		{"dcpar behind least-queued", []string{"dcs", "route", "dcpar"}, "single", 4, "lq", "-dcpar -route lq: parallel stepping needs a state-free route (round-robin); least-queued reads"},
		{"dcpar behind round-robin", []string{"dcs", "route", "dcpar"}, "single", 4, "round-robin", ""},
		{"dcpar behind the default route", []string{"dcs", "dcpar"}, "single", 4, "round-robin", ""},
		{"pet-aware sequential", []string{"dcs", "route"}, "single", 4, "pet-aware", ""},
		{"no cluster flags", nil, "fig7", 1, "round-robin", ""},
	} {
		set := make(map[string]bool)
		for _, n := range c.set {
			set[n] = true
		}
		err := validateClusterFlags(set, c.exp, c.dcs, c.route)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}
