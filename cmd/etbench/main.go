// Command etbench runs the repo's performance harness outside `go test`
// and emits a schema'd BENCH_<rev>.json artifact, so every revision
// leaves a comparable perf trajectory point: simulator speed
// (ns/instruction), campaign throughput (trials/sec), the share of
// trials that converged early, recovery throughput (recovered
// trials/sec on a hardened detection point) and a fixed campaign's
// wall-clock. CI runs it in -short mode on every push and
// uploads the artifact; docs/OBSERVABILITY.md documents the schema.
//
// Usage:
//
//	etbench [-short] [-out dir] [-rev id] [-baseline BENCH_prev.json]
//
// The artifact name uses the VCS revision stamped into the binary
// (internal/version); -rev overrides it for unstamped builds (go run,
// test binaries), where it would otherwise be "unknown". With -baseline,
// a previous revision's artifact is loaded and per-metric deltas are
// printed after the run; a missing or malformed baseline only warns, so
// CI can pass the previous push's artifact opportunistically.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/minic"
	"etap/internal/sim"
	"etap/internal/version"
)

// benchSchema identifies the artifact layout; bump it when fields
// change meaning.
const benchSchema = "etap-bench/v1"

// Metric is one measured figure.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Artifact is the BENCH_<rev>.json payload.
type Artifact struct {
	Schema    string    `json:"schema"`
	Revision  string    `json:"revision"`
	Dirty     bool      `json:"dirty,omitempty"`
	Go        string    `json:"go"`
	Timestamp time.Time `json:"timestamp"`
	Short     bool      `json:"short"`
	Metrics   []Metric  `json:"metrics"`
}

func main() {
	short := flag.Bool("short", false, "cheaper measurements (CI mode): smaller trial budgets, same shapes")
	outDir := flag.String("out", ".", "directory the BENCH_<rev>.json artifact is written into")
	revFlag := flag.String("rev", "", "revision id for the artifact name (default: the stamped VCS revision)")
	baseline := flag.String("baseline", "", "previous BENCH_<rev>.json to print per-metric deltas against (warn-only)")
	showVersion := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *showVersion {
		version.Fprint(os.Stdout, "etbench")
		return
	}
	if err := run(*short, *outDir, *revFlag, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "etbench:", err)
		os.Exit(1)
	}
}

func run(short bool, outDir, revFlag, baseline string) error {
	info := version.Get()
	rev := info.Short()
	if revFlag != "" {
		rev = revFlag
	}

	metrics, err := measure(short)
	if err != nil {
		return err
	}
	art := Artifact{
		Schema:    benchSchema,
		Revision:  info.Revision,
		Dirty:     info.Dirty,
		Go:        info.Go,
		Timestamp: time.Now().UTC().Truncate(time.Second),
		Short:     short,
		Metrics:   metrics,
	}
	if revFlag != "" {
		art.Revision = revFlag
	}

	path := filepath.Join(outDir, "BENCH_"+rev+".json")
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	for _, m := range metrics {
		fmt.Printf("  %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if baseline != "" {
		printDeltas(baseline, metrics)
	}
	return nil
}

// lowerIsBetter flags metrics where a negative delta is an improvement
// (per-step costs and wall-clocks, as opposed to throughputs).
var lowerIsBetter = map[string]bool{
	"sim_ns_per_instruction": true,
	"campaign_sweep_seconds": true,
}

// printDeltas compares the run's metrics against a previous artifact.
// Every failure mode is a warning, never an error: the perf trajectory is
// informational, and CI must stay green when the previous artifact has
// expired or the schema moved.
func printDeltas(path string, metrics []Metric) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etbench: baseline unavailable: %v\n", err)
		return
	}
	var prev Artifact
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "etbench: baseline %s unreadable: %v\n", path, err)
		return
	}
	if prev.Schema != benchSchema {
		fmt.Fprintf(os.Stderr, "etbench: baseline schema %q != %q; skipping deltas\n", prev.Schema, benchSchema)
		return
	}
	base := make(map[string]Metric, len(prev.Metrics))
	for _, m := range prev.Metrics {
		base[m.Name] = m
	}
	fmt.Printf("vs baseline %s (revision %s):\n", path, prev.Revision)
	for _, m := range metrics {
		b, ok := base[m.Name]
		if !ok || b.Value == 0 {
			fmt.Printf("  %-32s %14.4f %s (no baseline value)\n", m.Name, m.Value, m.Unit)
			continue
		}
		pct := (m.Value - b.Value) / b.Value * 100
		marker := ""
		switch improved := pct < 0 == lowerIsBetter[m.Name]; {
		case pct == 0:
		case improved:
			marker = "  (improved)"
		default:
			marker = "  (regressed)"
		}
		fmt.Printf("  %-32s %14.4f -> %14.4f %s  %+7.1f%%%s\n",
			m.Name, b.Value, m.Value, m.Unit, pct, marker)
	}
}

// measure runs the three headline measurements. Each uses
// testing.Benchmark, so iteration counts self-calibrate exactly as the
// bench_test.go harness does.
func measure(short bool) ([]Metric, error) {
	simApp, _ := all.ByName("blowfish")
	simProg, err := minic.Build(simApp.Source())
	if err != nil {
		return nil, fmt.Errorf("building blowfish: %w", err)
	}
	campApp, _ := all.ByName("adpcm")
	campProg, err := minic.Build(campApp.Source())
	if err != nil {
		return nil, fmt.Errorf("building adpcm: %w", err)
	}
	rep, err := core.Analyze(campProg, core.PolicyControlAddr)
	if err != nil {
		return nil, fmt.Errorf("analyzing adpcm: %w", err)
	}

	maxTrials := 64
	points := 4
	if short {
		maxTrials = 16
		points = 2
	}

	var metrics []Metric

	// Simulator speed: clean blowfish runs, no fault accounting.
	var benchErr error
	simRes := testing.Benchmark(func(b *testing.B) {
		var instret uint64
		for i := 0; i < b.N; i++ {
			res := sim.Run(simProg, sim.Config{Input: simApp.Input()})
			if res.Outcome != sim.OK {
				benchErr = fmt.Errorf("clean run outcome %s", res.Outcome)
				return
			}
			instret += res.Instret
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instret), "ns/instr")
	})
	if benchErr != nil {
		return nil, benchErr
	}
	metrics = append(metrics, Metric{
		Name:  "sim_ns_per_instruction",
		Value: simRes.Extra["ns/instr"],
		Unit:  "ns/instruction",
	})

	// Campaign throughput: sharded points on the checkpointing engine,
	// the per-trial cost a characterization job pays.
	eng, err := campaign.New(campProg, rep.Tagged, sim.Config{Input: campApp.Input()}, campaign.Config{})
	if err != nil {
		return nil, fmt.Errorf("engine setup: %w", err)
	}
	eng.Score = apps.Scorer(campApp)
	campRes := testing.Benchmark(func(b *testing.B) {
		trials := 0
		for i := 0; i < b.N; i++ {
			r := eng.RunPoint(context.Background(), campaign.Point{
				Errors: 5, HiBit: 31, MaxTrials: maxTrials, Seed: int64(i + 1),
			}, nil)
			trials += r.Trials
		}
		b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
	})
	metrics = append(metrics, Metric{
		Name:  "campaign_trials_per_second",
		Value: campRes.Extra["trials/s"],
		Unit:  "trials/second",
	})

	// Convergence reach: the share of simulated single-error trials that
	// fell back into the golden run's state at a checkpoint and took the
	// recorded golden tail instead of simulating it (docs/PERF.md). A drop
	// means the early exit stopped firing and trials pay for their tails
	// again.
	converged := 0
	for seed := int64(1); seed <= int64(maxTrials); seed++ {
		if eng.Run(1, seed).ConvergedAt != 0 {
			converged++
		}
	}
	metrics = append(metrics, Metric{
		Name:  "converged_fraction",
		Value: float64(converged) / float64(maxTrials),
		Unit:  "fraction",
	})

	// Fixed-campaign wall-clock: one deterministic sweep, timed once —
	// the end-to-end figure a service job's latency tracks.
	start := time.Now()
	total := 0
	for p := 0; p < points; p++ {
		r := eng.RunPoint(context.Background(), campaign.Point{
			Errors: 1 << p, HiBit: 31, MaxTrials: maxTrials, Seed: 1,
		}, nil)
		total += r.Trials
	}
	elapsed := time.Since(start)
	metrics = append(metrics,
		Metric{Name: "campaign_sweep_seconds", Value: elapsed.Seconds(), Unit: "seconds"},
		Metric{Name: "campaign_sweep_trials", Value: float64(total), Unit: "trials"},
	)

	// Recovery throughput: a hardened detection point with
	// checkpoint-restore recovery enabled — the per-trial cost of the
	// detect→rollback→replay loop, reported as recovered trials per
	// wall-second so regressions in snapshot restore or replay show up
	// directly.
	hardRes, err := harden.Harden(rep, harden.Options{DupCompare: true, Signatures: true})
	if err != nil {
		return nil, fmt.Errorf("hardening adpcm: %w", err)
	}
	hardEng, err := campaign.New(hardRes.Prog, hardRes.PrimaryProtected, sim.Config{Input: campApp.Input()}, campaign.Config{})
	if err != nil {
		return nil, fmt.Errorf("hardened engine setup: %w", err)
	}
	hardEng.Score = apps.Scorer(campApp)
	recRes := testing.Benchmark(func(b *testing.B) {
		recovered := 0
		for i := 0; i < b.N; i++ {
			r := hardEng.RunPoint(context.Background(), campaign.Point{
				Errors: 1, HiBit: 31, MaxTrials: maxTrials, Seed: int64(i + 1), MaxRecoveries: 3,
			}, nil)
			recovered += r.Recovered
		}
		if recovered == 0 {
			benchErr = fmt.Errorf("recovery benchmark recovered no trials")
			return
		}
		b.ReportMetric(float64(recovered)/b.Elapsed().Seconds(), "recovered/s")
	})
	if benchErr != nil {
		return nil, benchErr
	}
	metrics = append(metrics, Metric{
		Name:  "recovered_trials_per_sec",
		Value: recRes.Extra["recovered/s"],
		Unit:  "trials/second",
	})

	// Static-pruning reach: the dynamic share of eligible executions the
	// analyzer proves benign — the fraction of injection ordinals a
	// campaign answers without simulating (docs/ANALYSIS.md). Measured on
	// blowfish, the suite's most prunable workload, so regressions in the
	// liveness analysis show up as a drop here.
	simRep, err := core.Analyze(simProg, core.PolicyControlAddr)
	if err != nil {
		return nil, fmt.Errorf("analyzing blowfish: %w", err)
	}
	pruneEng, err := campaign.New(simProg, simRep.Tagged, sim.Config{Input: simApp.Input()}, campaign.Config{})
	if err != nil {
		return nil, fmt.Errorf("prune engine setup: %w", err)
	}
	metrics = append(metrics,
		Metric{Name: "static_prune_fraction", Value: pruneEng.StaticPruneFraction(), Unit: "fraction"},
	)
	return metrics, nil
}
