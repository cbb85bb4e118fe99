package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"etap/internal/analysis"
	"etap/internal/apps"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	obstrace "etap/internal/obs/trace"
	"etap/internal/sim"
)

// built is one subject made ready for campaigns.
type built struct {
	sub  subject
	prog *isa.Program // the program trials run: hardened when the subject is
	eng  *campaign.Engine
}

func (s *built) mode() string {
	if s.sub.hardened {
		return "hardened"
	}
	return "protected"
}

// buildSubject compiles, analyzes, hardens where asked and prepares the
// campaign engine of one subject. It adds the time campaign.New took to
// *newEngine.
func buildSubject(s subject, shardSize, workers int, newEngine *time.Duration) (*built, error) {
	prog, err := minic.Build(s.app.Source())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	rep, err := core.Analyze(prog, s.policy)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	b := &built{sub: s, prog: prog}
	eligible := rep.Tagged
	var hr *harden.Result
	if s.hardened {
		if hr, err = harden.Harden(rep, harden.DefaultOptions()); err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		b.prog, eligible = hr.Prog, hr.PrimaryProtected
	}
	t := time.Now()
	b.eng, err = campaign.New(b.prog, eligible, sim.Config{Input: s.app.Input()},
		campaign.Config{ShardSize: shardSize, Workers: workers})
	*newEngine += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	b.eng.Score = apps.Scorer(s.app)
	if hr != nil {
		b.eng.DetectClass = func(pc int) string { return hr.CheckKindAt(pc).String() }
	}
	return b, nil
}

// setUp prepares every subject of the plan: the work setup_s times. It
// returns the time spent in campaign.New.
func (b *bench) setUp(plan *campaignPlan) ([]*built, time.Duration, error) {
	subs := make([]*built, len(plan.subjects))
	var newEngine time.Duration
	for i, s := range plan.subjects {
		var err error
		if subs[i], err = buildSubject(s, plan.shardSize(i), campaignWorkers, &newEngine); err != nil {
			return nil, 0, err
		}
	}
	return subs, newEngine, nil
}

// checkClean verifies each subject's fault-free output: equal to the
// application's Go reference and scored acceptable.
func (b *bench) checkClean(subs []*built) {
	for _, s := range subs {
		out := s.eng.Clean.Output
		b.check(bytes.Equal(out, s.sub.app.Reference()), "%s: clean output differs from the reference", s.sub)
		_, ok := s.eng.Score(out, out)
		b.check(ok, "%s: clean output does not score acceptable", s.sub)
	}
}

// runPoint runs point i of the plan and checks its aggregate.
func (b *bench) runPoint(ctx context.Context, plan *campaignPlan, subs []*built, i int, seed int64, workers int) (campaign.PointResult, time.Duration) {
	ps := plan.points[i]
	t := time.Now()
	r := subs[ps.subject].eng.RunPoint(ctx, campaign.Point{
		Errors: ps.errors, HiBit: 31, MaxTrials: ps.trials, Seed: seed,
		Workers: workers, MaxRecoveries: ps.recoveries,
	}, nil)
	d := time.Since(t)
	name := fmt.Sprintf("%s errors=%d seed=%d", subs[ps.subject].sub, ps.errors, seed)
	ok := b.check(r.Trials == ps.trials && !r.EarlyStopped && !r.Cancelled,
		"%s: ran %d of %d trials", name, r.Trials, ps.trials)
	ok = b.check(r.Crashes+r.Timeouts+r.Detected+r.Recovered+r.Completed == r.Trials,
		"%s: outcome counts do not sum to the trials", name) && ok
	ok = b.check(r.Tolerated+r.Detected+r.Untolerated == r.Trials,
		"%s: tolerated+detected+untolerated != trials", name) && ok
	ok = b.check(r.Masked <= r.Completed && r.Accepted <= r.Completed,
		"%s: more masked or accepted trials than completed ones", name) && ok
	b.op(ok)
	return r, d
}

// encode renders one point as the campaign JSON report etcamp writes.
func encode(s *built, r campaign.PointResult) []byte {
	var buf bytes.Buffer
	rep := s.eng.NewReport(s.sub.app.Name(), s.mode(), []campaign.PointResult{r})
	if err := campaign.WriteJSON(&buf, []*campaign.Report{rep}); err != nil {
		panic(err) // the report holds no values JSON cannot encode
	}
	return buf.Bytes()
}

// warmUp runs one small point per subject so trial pools and predecoded
// programs are in place before anything is timed.
func (b *bench) warmUp(plan *campaignPlan, subs []*built) {
	for i, ps := range plan.points {
		if i > 0 && plan.points[i-1].subject == ps.subject {
			continue
		}
		b.runPoint(context.Background(), plan, subs, i, mix(plan.seed, -4, int64(i))|1, campaignWorkers)
	}
}

// timedCampaign is the timed run of campaign_sweep and harden_recover.
func (b *bench) timedCampaign(plan *campaignPlan) error {
	var subs []*built
	var setups, setupKernel []float64
	for rep := 0; rep < b.cfg.size.setupReps; rep++ {
		subs = nil
		runtime.GC()
		t := time.Now()
		var err error
		if subs, _, err = b.setUp(plan); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(t)))
		setupKernel = append(setupKernel, b.host.sample())
	}
	b.checkClean(subs)
	b.retainHeap() // before the warm-up fills the trial-state pools
	b.warmUp(plan, subs)

	ctx := context.Background()
	// times holds every point's times at the reference speed, measured
	// its measured times.
	times := make([][]float64, len(plan.points))
	measured := make([][]float64, len(plan.points))
	samples := 0
	check := plan.checkPoint()
	var ref []byte
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		h := sha256.New()
		var ran []int
		var took, kernel []float64
		roundStart := time.Now()
		for _, i := range plan.order(r) {
			if r > 0 && !time.Now().Before(deadline) {
				break
			}
			res, d := b.runPoint(ctx, plan, subs, i, plan.pointSeed(r, i), campaignWorkers)
			kernel = append(kernel, b.host.sample())
			s := subs[plan.points[i].subject]
			rep := encode(s, res)
			if r == 0 {
				fmt.Fprintf(b.log, "digest round 0 %s errors=%d: %s\n", s.sub, plan.points[i].errors, digest(rep))
				if i == check {
					ref = b.reference(rep)
				}
			}
			h.Write(rep)
			ran = append(ran, i)
			took = append(took, secs(d))
		}
		// The round's points are scaled by the round's kernel samples,
		// taken between them.
		for k, i := range ran {
			measured[i] = append(measured[i], took[k])
			times[i] = append(times[i], took[k]*speedScale(kernel))
		}
		samples += len(ran)
		fmt.Fprintf(b.log, "round %d: %d points in %.3fs, kernel median %.2f ms, digest %s\n",
			r, len(ran), time.Since(roundStart).Seconds(), median(kernel)*1e3, hex.EncodeToString(h.Sum(nil)[:8]))
	}
	elapsed := time.Since(start)
	b.retainHeap()

	b.checkWorkers(plan, subs, ref)

	// Every point has its median time over the rounds; the rates and
	// latency percentiles come from those medians, so one slow round
	// moves none of them.
	medians := make([]float64, len(plan.points))
	measuredMedians := make([]float64, len(plan.points))
	trials := 0
	for i, ps := range plan.points {
		medians[i] = median(times[i])
		measuredMedians[i] = median(measured[i])
		trials += ps.trials
		fmt.Fprintf(b.log, "point %s errors=%d: median %.4fs over %d rounds (measured %.4f s)\n",
			subs[ps.subject].sub, ps.errors, medians[i], len(times[i]), measured[i])
	}
	fmt.Fprintf(b.log, "timed phase %.2fs, %d point samples over %d points\n",
		elapsed.Seconds(), samples, len(plan.points))
	fmt.Fprintf(b.log, "set-ups: %.4f s\n", setups)
	b.logHost()
	b.report("setup_s", "s", median(setups), median(setups)*speedScale(setupKernel))
	b.report("trials_per_s", "1/s", float64(trials)/sum(measuredMedians), float64(trials)/sum(medians))
	b.report("jobs_per_s", "1/s", float64(len(plan.points))/sum(measuredMedians), float64(len(plan.points))/sum(medians))
	b.report("job_latency_p50_s", "s", median(measuredMedians), median(medians))
	b.report("job_latency_p90_s", "s", percentile(measuredMedians, 90), percentile(medians, 90))
	return nil
}

// recheckWorkers is the worker count checkWorkers re-runs a point at:
// another count than the benchmark's own campaigns use.
const recheckWorkers = 2

// checkWorkers re-runs the plan's check point of round 0 at
// recheckWorkers workers: the worker count must never change a report.
func (b *bench) checkWorkers(plan *campaignPlan, subs []*built, ref []byte) {
	i := plan.checkPoint()
	res, _ := b.runPoint(context.Background(), plan, subs, i, plan.pointSeed(0, i), recheckWorkers)
	b.check(bytes.Equal(encode(subs[plan.points[i].subject], res), ref),
		"round 0 point %d re-run at workers=%d differs from its report", i, recheckWorkers)
}

// tracedCampaign is the traced run of the campaign workloads: one
// set-up with per-call timers, round 0 under a tracer between counter
// scrapes, standalone layer probes, alternating untraced and traced
// rounds for the tracing overhead, and the service probe.
func (b *bench) tracedCampaign(plan *campaignPlan) error {
	c0 := scrape()
	subs, newEngine, err := b.setUp(plan)
	if err != nil {
		return err
	}
	b.checkClean(subs)
	b.warmUp(plan, subs)
	c1 := scrape()

	tracer := obstrace.New(obstrace.Config{})
	var spans spanStats
	results := make([]campaign.PointResult, len(plan.points))
	roundTrials := 0
	for _, i := range plan.order(0) {
		res, _, err := b.tracedPoint(tracer, &spans, plan, subs, i)
		if err != nil {
			return err
		}
		s := subs[plan.points[i].subject]
		fmt.Fprintf(b.log, "digest round 0 %s errors=%d: %s\n", s.sub, plan.points[i].errors, digest(encode(s, res)))
		results[i] = res
		roundTrials += res.Trials
	}
	c2 := scrape()
	b.setCounts(c0, c1, c2, roundTrials)
	b.setSpanStats(&spans)
	check := plan.checkPoint()
	b.checkWorkers(plan, subs, b.reference(encode(subs[plan.points[check].subject], results[check])))

	b.set("campaign.new_s", "s", secs(newEngine))
	if err := b.probeLayers(subs); err != nil {
		return err
	}
	bySubject := map[int][]campaign.PointResult{}
	for i, ps := range plan.points {
		bySubject[ps.subject] = append(bySubject[ps.subject], results[i])
	}
	var reports []*campaign.Report
	for si, s := range subs {
		reports = append(reports, s.eng.NewReport(s.sub.app.Name(), s.mode(), bySubject[si]))
	}
	b.set("exp.render_s", "s", timeRender(func(buf *bytes.Buffer) error {
		if err := campaign.WriteJSON(buf, reports); err != nil {
			return err
		}
		return campaign.WriteCSV(buf, reports)
	}))

	if err := b.traceOverhead(plan, subs); err != nil {
		return err
	}
	return b.serviceProbe()
}

// probeLayers times the static layers and the simulator on the
// subjects' programs, outside any campaign.
func (b *bench) probeLayers(subs []*built) error {
	var build, analyze, classify, hard []float64
	for r := 0; r < b.cfg.size.probeLayerReps; r++ {
		var tb, ta, tc, th time.Duration
		for _, s := range subs {
			t := time.Now()
			p, err := minic.Build(s.sub.app.Source())
			tb += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			rep, err := core.Analyze(p, s.sub.policy)
			ta += time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			// A program whose control flow the classifier rejects runs
			// unpruned; the call costs the same either way.
			_, _ = analysis.Classify(s.prog)
			tc += time.Since(t)
			t = time.Now()
			_, err = harden.Harden(rep, harden.DefaultOptions())
			th += time.Since(t)
			if err != nil {
				return err
			}
		}
		build = append(build, secs(tb))
		analyze = append(analyze, secs(ta))
		classify = append(classify, secs(tc))
		hard = append(hard, secs(th))
	}
	b.set("minic.build_s", "s", median(build))
	b.set("core.analyze_s", "s", median(analyze))
	b.set("analysis.classify_s", "s", median(classify))
	b.set("harden.harden_s", "s", median(hard))

	var rec, run time.Duration
	var recInstr, runInstr uint64
	prune := 0.0
	for _, s := range subs {
		cfg := sim.Config{Input: s.sub.app.Input(), Plan: &sim.FaultPlan{Eligible: s.eng.Eligible}}
		t := time.Now()
		r, err := sim.Record(s.prog, cfg, sim.RecordOptions{})
		rec += time.Since(t)
		if err != nil {
			return err
		}
		recInstr += r.Result.Instret
		clean := sim.Config{Input: s.sub.app.Input()}
		sim.Run(s.prog, clean) // predecodes the program
		t = time.Now()
		res := sim.Run(s.prog, clean)
		run += time.Since(t)
		runInstr += res.Instret
		b.check(res.Outcome == sim.OK && bytes.Equal(res.Output, s.sub.app.Reference()),
			"%s: clean engine run differs from the reference", s.sub)
		prune += s.eng.StaticPruneFraction()
	}
	b.set("sim.record_s", "s", secs(rec))
	b.set("sim.record_ns_per_instr", "ns", float64(rec.Nanoseconds())/float64(recInstr))
	b.set("sim.run_ns_per_instr", "ns", float64(run.Nanoseconds())/float64(runInstr))
	b.set("analysis.static_prune_frac", "frac", prune/float64(len(subs)))
	return nil
}

// setCounts reports the simulator and campaign counters: totals over
// set-up plus round 0 (c0 to c2), per-trial ratios over round 0 alone
// (c1 to c2).
func (b *bench) setCounts(c0, c1, c2 counters, roundTrials int) {
	perTrial := func(v float64) float64 { return v / float64(max(roundTrials, 1)) }
	b.set("sim.instr_simulated", "count", c2.delta(c0, "etap_sim_instructions_total"))
	b.set("sim.instr_per_trial", "count", perTrial(c2.delta(c1, "etap_sim_instructions_total")))
	b.set("sim.runs.restore", "count", c2.delta(c0, `etap_sim_runs_total{kind="restore"}`))
	b.set("sim.runs.record", "count", c2.delta(c0, `etap_sim_runs_total{kind="record"}`))
	b.set("sim.checkpoints", "count", c2.delta(c0, "etap_sim_checkpoints_total"))
	b.set("campaign.pruned_frac", "frac", perTrial(c2.delta(c1, "etap_campaign_trials_pruned_total")))
	b.set("campaign.recover_attempts_per_trial", "count", perTrial(c2.delta(c1, "etap_campaign_recoveries_total")))
	recovered := c2.delta(c1, "etap_campaign_recover_latency_instructions_count")
	replayed := 0.0
	if recovered > 0 {
		replayed = c2.delta(c1, "etap_campaign_recover_latency_instructions_sum") / recovered
	}
	b.set("campaign.recover_instr", "count", replayed)
}

// timeRender is the time one call of render takes, averaged over enough
// calls to fill 50ms.
func timeRender(render func(*bytes.Buffer) error) float64 {
	var buf bytes.Buffer
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < 50*time.Millisecond {
		buf.Reset()
		if err := render(&buf); err != nil {
			panic(err) // renderers write to a bytes.Buffer and fail only on a bug
		}
		n++
	}
	return secs(time.Since(start)) / float64(n)
}
