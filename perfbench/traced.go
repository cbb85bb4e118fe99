package main

import (
	"context"
	"fmt"
	"time"

	"etap/internal/campaign"
	obstrace "etap/internal/obs/trace"
)

// spanStats collects the campaign spans of traced points.
type spanStats struct {
	points      []float64 // campaign.point durations, seconds
	shards      []float64 // campaign.shard durations, seconds
	shardTrials int
}

func (s *spanStats) add(td *obstrace.TraceData) {
	for _, sp := range td.Spans {
		switch sp.Name {
		case "campaign.point":
			s.points = append(s.points, sp.DurationMS/1e3)
		case "campaign.shard":
			s.shards = append(s.shards, sp.DurationMS/1e3)
			s.shardTrials += int(attrNum(sp.Attrs, "trials"))
		}
	}
}

// attrNum reads a numeric span attribute, recorded in memory (int64) or
// decoded from JSON (float64).
func attrNum(attrs []obstrace.AttrData, key string) float64 {
	for _, a := range attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Value.(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		}
	}
	return 0
}

func (b *bench) setSpanStats(s *spanStats) {
	b.set("campaign.point_s", "s", median(s.points))
	b.set("campaign.shard_s.p50", "s", percentile(s.shards, 50))
	b.set("campaign.shard_s.p90", "s", percentile(s.shards, 90))
	b.set("campaign.trial_us", "us", sum(s.shards)/float64(max(s.shardTrials, 1))*1e6)
}

// jobTimes reads one service job's trace: time queued, time running, and
// the running time outside campaign points (Lab lookup, campaign.New,
// report assembly).
func jobTimes(td *obstrace.TraceData) (queued, run, setup float64, ok bool) {
	var runID string
	var haveQueued bool
	for _, sp := range td.Spans {
		switch sp.Name {
		case "job.queued":
			queued, haveQueued = sp.DurationMS/1e3, true
		case "job.run":
			run, runID = sp.DurationMS/1e3, sp.SpanID
		}
	}
	points := 0.0
	for _, sp := range td.Spans {
		if sp.Name == "campaign.point" && sp.ParentID == runID {
			points += sp.DurationMS / 1e3
		}
	}
	return queued, run, run - points, haveQueued && runID != ""
}

// tracedPoint runs round-0 point i under a root span of tracer and, when
// spans is non-nil, folds the point's recorded spans into it.
func (b *bench) tracedPoint(tracer *obstrace.Tracer, spans *spanStats, plan *campaignPlan, subs []*built, i int) (campaign.PointResult, time.Duration, error) {
	ctx, root := tracer.Start(context.Background(), "perfbench.point")
	res, d := b.runPoint(ctx, plan, subs, i, plan.pointSeed(0, i), campaignWorkers)
	root.End()
	if spans == nil {
		return res, d, nil
	}
	td := tracer.Get(root.TraceID())
	if td == nil {
		return res, d, fmt.Errorf("trace of point %d was not recorded", i)
	}
	spans.add(td)
	return res, d, nil
}

// traceOverhead runs the round-0 points alternately without and with a
// tracer on the context until the run's seconds have passed, and reports
// the traced time over the untraced time, less one, from per-point
// medians.
func (b *bench) traceOverhead(plan *campaignPlan, subs []*built) error {
	tracer := obstrace.New(obstrace.Config{})
	plain := make([][]float64, len(plan.points))
	traced := make([][]float64, len(plan.points))
	start := time.Now()
	for len(traced[0]) == 0 || time.Since(start) < b.cfg.seconds {
		for _, i := range plan.order(0) {
			_, d := b.runPoint(context.Background(), plan, subs, i, plan.pointSeed(0, i), campaignWorkers)
			plain[i] = append(plain[i], secs(d))
			_, d, err := b.tracedPoint(tracer, nil, plan, subs, i)
			if err != nil {
				return err
			}
			traced[i] = append(traced[i], secs(d))
		}
	}
	var p, t float64
	for i := range plain {
		p += median(plain[i])
		t += median(traced[i])
	}
	b.set("obs.trace_overhead_frac", "frac", (t-p)/p)
	return nil
}
