// Command perfbench is etap's benchmark. It runs one seeded workload,
// checks that the program's outputs are correct, and prints its metrics:
// the end-to-end metrics in a timed run (-trace 0), the per-layer metrics
// in a separate traced run (-trace 1). The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload campaign_sweep --seed 1 --seconds 30 --trace 0
//
// Workloads: campaign_sweep, harden_recover, service_jobs. README.md
// beside this file says why each exists and what each metric measures.
// The benchmark only calls the program's public functions and reads the
// spans and counters it already emits; it adds no instrumentation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed, traced func(*bench) error
}{
	"campaign_sweep": {
		timed:  func(b *bench) error { return b.timedCampaign(sweepPlan(b.cfg.seed, b.cfg.size)) },
		traced: func(b *bench) error { return b.tracedCampaign(sweepPlan(b.cfg.seed, b.cfg.size)) },
	},
	"harden_recover": {
		timed:  func(b *bench) error { return b.timedCampaign(hardenPlan(b.cfg.seed, b.cfg.size)) },
		traced: func(b *bench) error { return b.tracedCampaign(hardenPlan(b.cfg.seed, b.cfg.size)) },
	},
	"service_jobs": {
		timed:  func(b *bench) error { return b.timedService(newServicePlan(b.cfg.seed, b.cfg.size)) },
		traced: func(b *bench) error { return b.tracedService(newServicePlan(b.cfg.seed, b.cfg.size)) },
	},
}

// campaignWorkers is the campaign workers of every campaign the
// benchmark runs itself. One worker leaves the other CPU to the runtime
// (the collector, timers), so a point's time does not hang on two CPUs
// of a shared machine at once.
const campaignWorkers = 1

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	// clients is the service's closed-loop clients and its server
	// workers: never more than the machine's CPUs.
	clients int
	// tmpDir holds the service's state files; it lies inside the
	// checkout's build directory.
	tmpDir string
	// corrupt flips one byte of the first reference report the run
	// stores, standing in for a program that returns a wrong report.
	// The self-test sets it to prove the checks catch that.
	corrupt bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's operations, failed checks and metrics.
type bench struct {
	cfg       config
	log       io.Writer
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	corrupted bool
	// heapRetained is the largest live heap measured by retainHeap.
	heapRetained float64
	// host times the fixed kernel timed runs scale their figures by.
	host hostSpeed
}

func main() {
	workload := flag.String("workload", "", "workload to run: campaign_sweep, harden_recover or service_jobs")
	seed := flag.Int64("seed", BaselineSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 for the timed run (end-to-end metrics), 1 for the traced run (per-layer metrics)")
	buildDir := flag.String("build-dir", ".bench_build", "directory for temporary files")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign_sweep|harden_recover|service_jobs --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		size:     fullSize,
		clients:  min(2, runtime.NumCPU()),
		tmpDir:   *buildDir,
	}
	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result; log receives the
// human-readable account (digests, checks, metric table).
func execute(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, log: log, metrics: make(map[string]metric)}
	w := workloads[cfg.workload]
	run := w.timed
	if cfg.trace {
		run = w.traced
	}
	fmt.Fprintf(log, "perfbench %s seed=%d seconds=%v trace=%v workers=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, campaignWorkers, cfg.clients)
	if err := run(b); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.set("runtime.peak_rss_mb", "MB", peakRSSMB())
	} else {
		b.set("heap_retained_mb", "MB", b.heapRetained)
	}
	b.printMetrics()
	for _, p := range b.problems {
		fmt.Fprintln(log, "FAILED CHECK:", p)
	}
	return &result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// check records a failed correctness check and reports whether it held.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one operation (a campaign point or a service job) and
// whether it passed every check.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// retainHeap measures the heap the workload keeps live at a quiet moment
// (after set-up, after the measured phase). Two collections first empty
// the trial-state pools, which hold scratch memory, not state.
func (b *bench) retainHeap() {
	runtime.GC()
	runtime.GC()
	b.heapRetained = max(b.heapRetained, liveHeapMB())
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// reference returns the bytes to keep as a reference report, corrupted
// once when the run was asked to.
func (b *bench) reference(report []byte) []byte {
	ref := append([]byte(nil), report...)
	if b.cfg.corrupt && !b.corrupted && len(ref) > 0 {
		ref[len(ref)/2] ^= 0x20
		b.corrupted = true
	}
	return ref
}

func (b *bench) printMetrics() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(b.log, strings.Repeat("-", 60))
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(b.log, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
