package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declared reads the metrics BENCHMARK.json promises for one kind of run.
func declared(t *testing.T, trace bool) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, d := range list {
		want[d.Name] = d.Unit
	}
	return want
}

func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     BaselineSeed,
		seconds:  time.Second,
		trace:    trace,
		size:     tinySize,
		clients:  min(2, runtime.NumCPU()),
		tmpDir:   t.TempDir(),
	}
}

// TestEveryMetricPrinted runs each workload at a tiny size, timed and
// traced, and checks that the run passes its checks and prints exactly
// the metrics BENCHMARK.json declares, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/timed"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := execute(tiny(t, w, trace), &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := declared(t, trace)
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s not printed", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
				}
				for n := range res.Metrics {
					if _, ok := want[n]; !ok {
						t.Errorf("metric %s printed but not declared", n)
					}
				}
				if !strings.Contains(log.String(), "digest") {
					t.Error("no report digest printed")
				}
			})
		}
	}
}

// TestCorruptedReportFails stands in for a program that returns a wrong
// report once: the run must notice and fail.
func TestCorruptedReportFails(t *testing.T) {
	for _, w := range []string{"campaign_sweep", "harden_recover", "service_jobs"} {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w, false)
			cfg.corrupt = true
			var log bytes.Buffer
			res, err := execute(cfg, &log)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatalf("run with a corrupted report passed\n%s", log.String())
			}
		})
	}
}

// TestSameSeedSameDigests pins determinism: two runs at one seed print
// the same report digests.
func TestSameSeedSameDigests(t *testing.T) {
	digests := func() string {
		var log bytes.Buffer
		if _, err := execute(tiny(t, "campaign_sweep", false), &log); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(line, "digest round 0") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	a, b := digests(), digests()
	if a == "" || a != b {
		t.Fatalf("digests differ between runs at one seed:\n%s\n---\n%s", a, b)
	}
}
