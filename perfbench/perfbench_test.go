package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/treedoc/treedoc/internal/transport"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables keeps the metric tables and BENCHMARK.json in
// step, and every workload registered.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program has [%s]", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// smoke runs one workload at tiny size and returns its result line.
func smoke(t *testing.T, workload string, traced bool, wrap func(transport.Link, *linkStats, frameTap) transport.Link) (result, string, error) {
	t.Helper()
	var out bytes.Buffer
	r := &run{seed: 3, seconds: time.Second, traced: traced, tiny: true, wrap: wrap, out: &out}
	err := execute(r, workloads[workload])
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil && err == nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, jerr, out.String())
	}
	return res, out.String(), err
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the output names every metric in BENCHMARK.json with its
// unit and passes its own correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, out, err := smoke(t, w.Name, traced, wrapLink)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// capabilityHidingLink embeds the Link interface and nothing else, so it
// hides the session link's ReplayRouter capability: the bug class of a
// harness wrapper that silently turns directed answers into broadcasts.
type capabilityHidingLink struct{ transport.Link }

// TestHiddenReplayRouterFailsCatchup shows the capability check trips
// when a link wrapper does not forward RoutesReplay.
func TestHiddenReplayRouterFailsCatchup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the catchup workload")
	}
	hiding := func(l transport.Link, st *linkStats, tap frameTap) transport.Link {
		return capabilityHidingLink{wrapLink(l, st, tap)}
	}
	res, out, err := smoke(t, "catchup", false, hiding)
	if err == nil || res.Correct {
		t.Fatalf("catchup passed with a capability-hiding wrapper:\n%s", out)
	}
	if !strings.Contains(out, "ReplayRouter") {
		t.Fatalf("failure does not name the hidden capability:\n%s", out)
	}
}

func TestCheckReplayRouting(t *testing.T) {
	for _, c := range []struct {
		routes, fallbacks uint64
		ok                bool
	}{{10, 0, true}, {0, 0, false}, {10, 1, false}} {
		err := checkReplayRouting(transport.HubStats{ReplayRoutes: c.routes, ReplayFallbacks: c.fallbacks})
		if (err == nil) != c.ok {
			t.Errorf("routes=%d fallbacks=%d: err=%v", c.routes, c.fallbacks, err)
		}
	}
}

func TestWrapLinkForwardsRoutesReplay(t *testing.T) {
	a, _ := transport.ChanPair(1)
	if wrapLink(a, &linkStats{}, nil).(transport.ReplayRouter).RoutesReplay() {
		t.Error("a channel link does not route replays, but its wrapper says it does")
	}
	if !wrapLink(routingLink{a}, &linkStats{}, nil).(transport.ReplayRouter).RoutesReplay() {
		t.Error("the wrapper hides a routing link's capability")
	}
}

type routingLink struct{ transport.Link }

func (routingLink) RoutesReplay() bool { return true }

func TestSamplesTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if v, pct := s.tail(); pct != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = p%g %v, want p99 990", pct, v)
	}
	if v, pct := s[:50].tail(); pct != 100 || v != 50 {
		t.Errorf("tail of 1..50 = p%g %v, want the maximum", pct, v)
	}
	if m := s.median(); m != 500 {
		t.Errorf("median = %v", m)
	}
}
