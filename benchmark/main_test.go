package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuickRuns runs every workload once timed and once traced at smoke-test
// sizes. run fails unless the result line carries exactly the metrics
// BENCHMARK.json declares for the run's kind, so this also checks that
// every declared metric is emitted on every workload and nothing else is.
func TestQuickRuns(t *testing.T) {
	decl, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			line, err := run(config{workload: w.Name, seed: 1, trace: traced, quick: true, root: "..", work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): %s", w.Name, traced, line)
			}
			t.Logf("%s (traced %v): %d ops in %v", w.Name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration checks BENCHMARK.json itself: its six top-level fields,
// the name and unit alphabets, each end-to-end metric's bound, and that its
// workloads are exactly the program's.
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	decl, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", decl.RunSeconds)
	}
	// The caller appends the workload, seed, run length and trace flag to
	// the command, which must not fix any of them.
	for _, arg := range decl.Command {
		if strings.HasPrefix(arg, "-") {
			t.Errorf("command fixes flag %s", arg)
		}
	}

	used := map[string]bool{}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		used[w.Name] = true
	}
	var program []string
	for name := range workloads {
		program = append(program, name)
	}
	sort.Strings(declared)
	sort.Strings(program)
	if strings.Join(declared, ",") != strings.Join(program, ",") {
		t.Errorf("declared workloads %v, program runs %v", declared, program)
	}

	check := func(m metricDecl, endToEnd bool) {
		if !nameRE.MatchString(m.Name) || used[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		used[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if endToEnd != (m.Bound != nil) {
			t.Errorf("metric %s: an end-to-end metric needs a bound, a per-layer one has none", m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, m := range decl.EndToEnd {
		check(m, true)
	}
	for _, m := range decl.PerLayer {
		check(m, false)
	}
	setup := metricDecl{}
	for _, m := range decl.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or not in seconds, lower is better: %+v", setup)
	}
	for _, m := range decl.EndToEnd {
		if setup.Bound != nil && m.Bound != nil && *m.Bound > *setup.Bound {
			t.Errorf("setup_s must have the largest bound; %s has %v", m.Name, *m.Bound)
		}
	}
}
