package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"etap"
	"etap/internal/exp"
	obstrace "etap/internal/obs/trace"
	"etap/internal/server"
)

// service is an in-process etserve on a loopback listener, with its
// state file (and so its append journal) in a temporary directory.
type service struct {
	srv    *etap.Server
	hs     *httptest.Server
	dir    string
	state  string
	client *http.Client
}

func startService(tmp string, workers int) (*service, error) {
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	state := filepath.Join(dir, "state.json")
	// The job table is bounded so the server's retained state stops
	// growing after a few rounds, whatever the run's length.
	srv, err := etap.NewServer(etap.WithServeStateFile(state), etap.WithServeWorkers(workers), etap.WithServeMaxJobs(64))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return &service{srv: srv, hs: hs, dir: dir, state: state, client: hs.Client()}, nil
}

// stop shuts the server down; its state file stays until remove.
func (s *service) stop() error {
	s.hs.Close()
	return s.srv.Close()
}

func (s *service) remove() { os.RemoveAll(s.dir) }

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	round   int
	spec    int           // index into the plan's jobs
	submit  time.Duration // POST until the 202 arrived
	fetch   time.Duration // GET report
	latency time.Duration // submit until the report was read
	report  []byte
	traceID string
}

func (j jobSpec) request() server.SubmitRequest {
	req := server.SubmitRequest{
		Benchmark: j.benchmark,
		Policy:    j.policy.String(),
		Errors:    j.errors,
		Trials:    j.trials,
		Seed:      j.seed,
		Workers:   1,
		Recovery:  j.recovery,
	}
	if j.hardened {
		req.Harden = &server.HardenSpec{DupCompare: true, Signatures: true}
	}
	return req
}

// do runs one job the way the documented curl flow does: submit, follow
// the event stream to its end, fetch the report.
func (s *service) do(ctx context.Context, spec jobSpec) (jobOutcome, error) {
	var out jobOutcome
	body, err := json.Marshal(spec.request())
	if err != nil {
		return out, err
	}
	start := time.Now()
	var sub struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	resp, err := s.send(ctx, http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return out, fmt.Errorf("submit response: %w", err)
	}
	out.submit = time.Since(start)
	out.traceID = sub.TraceID
	state, err := s.follow(ctx, sub.ID)
	if err != nil {
		return out, err
	}
	if state != "done" {
		return out, fmt.Errorf("job %s ended %q", sub.ID, state)
	}
	t := time.Now()
	out.report, err = s.send(ctx, http.MethodGet, "/api/v1/jobs/"+sub.ID+"/report", nil, http.StatusOK)
	out.fetch = time.Since(t)
	out.latency = time.Since(start)
	return out, err
}

// send makes one request and returns the body of a response with the
// wanted status.
func (s *service) send(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// follow reads a job's SSE stream to its end and returns the state of
// the last state event.
func (s *service) follow(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	state, inState := "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			inState = line == "event: state"
		case inState && strings.HasPrefix(line, "data: "):
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", fmt.Errorf("events of %s: %w", id, err)
			}
			state = ev.State
		}
	}
	return state, sc.Err()
}

// trace fetches a job's recorded trace, waiting for its last span to end.
func (s *service) trace(ctx context.Context, id string) (*obstrace.TraceData, error) {
	for try := 0; ; try++ {
		data, err := s.send(ctx, http.MethodGet, "/traces/"+id, nil, http.StatusOK)
		if err == nil {
			var td obstrace.TraceData
			if err := json.Unmarshal(data, &td); err != nil {
				return nil, fmt.Errorf("trace %s: %w", id, err)
			}
			return &td, nil
		}
		if try == 200 {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkReport verifies one job's report: one row per error count, each
// running the full trial budget, with outcome counts that add up.
func (b *bench) checkReport(spec jobSpec, raw []byte) (trials int, ok bool) {
	var reps []*exp.Report
	if err := json.Unmarshal(raw, &reps); err != nil || len(reps) != 1 {
		return 0, b.check(false, "%s: report does not decode as one report", spec.key())
	}
	r := reps[0]
	col := map[string]int{}
	for i, c := range r.Columns {
		col[c.Name] = i
	}
	num := func(row []exp.Cell, name string) int {
		i, found := col[name]
		if !found || i >= len(row) || row[i].Num == nil {
			return -1
		}
		return int(*row[i].Num)
	}
	ok = b.check(len(r.Rows) == len(spec.errors), "%s: %d report rows for %d error counts", spec.key(), len(r.Rows), len(spec.errors))
	for _, row := range r.Rows {
		n := num(row, "trials")
		trials += n
		ok = b.check(n == spec.trials, "%s: a point ran %d of %d trials", spec.key(), n, spec.trials) && ok
		ok = b.check(num(row, "crashes")+num(row, "timeouts")+num(row, "detected")+num(row, "recovered")+num(row, "completed") == n,
			"%s: outcome counts do not sum to the trials", spec.key()) && ok
		ok = b.check(num(row, "tolerated")+num(row, "detected")+num(row, "untolerated") == n,
			"%s: tolerated+detected+untolerated != trials", spec.key()) && ok
		i := col["status"]
		ok = b.check(i < len(row) && row[i].Text == "ok", "%s: point status is not ok", spec.key()) && ok
	}
	return trials, ok
}

// runJob runs one job and checks its report.
func (b *bench) runJob(ctx context.Context, svc *service, spec jobSpec) error {
	out, err := svc.do(ctx, spec)
	if err != nil {
		b.op(false)
		b.check(false, "%s: %v", spec.key(), err)
		return err
	}
	_, ok := b.checkReport(spec, out.report)
	b.op(ok)
	return nil
}

// setUpService starts a server and runs one warm-up job per
// application: the work setup_s times for service_jobs.
func (b *bench) setUpService(plan *servicePlan) (*service, error) {
	svc, err := startService(b.cfg.tmpDir, b.cfg.clients)
	if err != nil {
		return nil, err
	}
	for _, w := range plan.warm {
		if err := b.runJob(context.Background(), svc, w); err != nil {
			svc.stop()
			svc.remove()
			return nil, err
		}
	}
	return svc, nil
}

// jobRound is what the clients of a closed loop saw.
type jobRound struct {
	outs    []jobOutcome
	trials  int
	elapsed time.Duration
}

// closedLoop runs rounds from, from+1, ..., to-1 of the plan's jobs,
// whole round pairs, so every job's repeat is compared. b.cfg.clients
// clients each run one job at a time; after, when set, runs on the
// client's goroutine once its job has finished.
func (b *bench) closedLoop(svc *service, plan *servicePlan, from, to int, after func(jobOutcome) error) (*jobRound, error) {
	type done struct {
		out jobOutcome
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	next := make(chan [2]int) // round, job index
	go func() {
		defer close(next)
		for r := from; r < to; r++ {
			for _, i := range plan.order(r) {
				select {
				case next <- [2]int{r, i}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	results := make(chan done)
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri := range next {
				out, err := svc.do(ctx, plan.job(ri[0], ri[1]))
				out.round, out.spec = ri[0], ri[1]
				if err == nil && after != nil {
					err = after(out)
				}
				select {
				case results <- done{out: out, err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	round := &jobRound{}
	var firstErr error
	refs := map[[2]int][]byte{} // (round pair, job) → first run's report
	for d := range results {
		spec := plan.job(d.out.round, d.out.spec)
		if d.err != nil {
			b.op(false)
			b.check(false, "%s: %v", spec.key(), d.err)
			if firstErr == nil {
				firstErr = d.err
				cancel()
			}
			continue
		}
		trials, ok := b.checkReport(spec, d.out.report)
		b.op(b.compareRepeat(refs, d.out, spec) && ok)
		round.trials += trials
		// Keep no report bytes: they would count in heap_retained_mb.
		d.out.report = nil
		round.outs = append(round.outs, d.out)
	}
	round.elapsed = time.Since(start)
	return round, firstErr
}

// compareRepeat checks that the two runs of a job in a round pair
// return the same bytes, printing each job's report digest on its first
// run; refs holds first runs until their repeat arrives.
func (b *bench) compareRepeat(refs map[[2]int][]byte, o jobOutcome, spec jobSpec) bool {
	key := [2]int{o.round / 2, o.spec}
	ref, seen := refs[key]
	if !seen {
		refs[key] = b.reference(o.report)
		fmt.Fprintf(b.log, "digest job %d of round pair %d, %s errors=%v: %s\n",
			o.spec, o.round/2, spec.key(), spec.errors, digest(o.report))
		return true
	}
	delete(refs, key)
	return b.check(bytes.Equal(o.report, ref), "job %d of round pair %d (%s): repeated job returned a different report",
		o.spec, o.round/2, spec.key())
}

// timedService is the timed run of service_jobs.
func (b *bench) timedService(plan *servicePlan) error {
	var svc *service
	var setups, setupKernel []float64
	for rep := 0; rep < b.cfg.size.setupReps; rep++ {
		if svc != nil {
			svc.stop()
			svc.remove()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if svc, err = b.setUpService(plan); err != nil {
			return err
		}
		setups = append(setups, secs(time.Since(t)))
		setupKernel = append(setupKernel, b.host.sample())
	}
	defer svc.remove()

	// The phase runs round pairs until --seconds have passed, and times
	// the host-speed kernel between pairs, while no job runs.
	minRounds := max(2, (b.cfg.size.minJobs+len(plan.jobs)-1)/len(plan.jobs))
	var outs []jobOutcome
	var busy time.Duration
	var kernel []float64
	trials := 0
	start := time.Now()
	var err error
	for r := 0; err == nil && (r < minRounds || time.Since(start) < b.cfg.seconds); r += 2 {
		var round *jobRound
		round, err = b.closedLoop(svc, plan, r, r+2, nil)
		if err == nil {
			outs = append(outs, round.outs...)
			busy += round.elapsed
			trials += round.trials
			kernel = append(kernel, b.host.sample())
		}
	}
	b.retainHeap()
	if stopErr := svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	var lat []float64
	bySpec := make([][]float64, len(plan.jobs))
	for _, o := range outs {
		lat = append(lat, secs(o.latency))
		bySpec[o.spec] = append(bySpec[o.spec], secs(o.latency))
	}
	for i, j := range plan.jobs {
		fmt.Fprintf(b.log, "job %d %s errors=%v trials=%d: median latency %.4fs, max %.4fs over %d runs\n",
			i, j.key(), j.errors, j.trials, median(bySpec[i]), percentile(bySpec[i], 100), len(bySpec[i]))
	}
	fmt.Fprintf(b.log, "timed phase %.2fs running jobs, %d jobs (%d per round), %d latency samples\n",
		busy.Seconds(), len(outs), len(plan.jobs), len(lat))
	fmt.Fprintf(b.log, "set-ups: %.4f s\n", setups)
	b.logHost()
	scale := speedScale(kernel)
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	jobRate, trialRate := float64(len(outs))/busy.Seconds(), float64(trials)/busy.Seconds()
	b.report("setup_s", "s", median(setups), median(setups)*speedScale(setupKernel))
	b.report("job_latency_p50_s", "s", p50, p50*scale)
	b.report("job_latency_p90_s", "s", p90, p90*scale)
	b.report("jobs_per_s", "1/s", jobRate, jobRate/scale)
	b.report("trials_per_s", "1/s", trialRate, trialRate/scale)
	return nil
}

// serviceLayers runs one round pair of plan's jobs through a fresh server
// with each job's trace fetched from GET /traces/{id}, and reports the
// server, Lab and journal metrics. counted, when set, receives the
// round's trial count and the counter scrapes around set-up and round.
func (b *bench) serviceLayers(plan *servicePlan, counted func(c0, c1, c2 counters, trials int)) ([][]byte, []*obstrace.TraceData, error) {
	c0 := scrape()
	svc, err := b.setUpService(plan)
	if err != nil {
		return nil, nil, err
	}
	defer svc.remove()
	c1 := scrape()
	var mu sync.Mutex
	var traces []*obstrace.TraceData
	var reports [][]byte
	round, err := b.closedLoop(svc, plan, 0, 2, func(o jobOutcome) error {
		td, err := svc.trace(context.Background(), o.traceID)
		if err != nil {
			return err
		}
		mu.Lock()
		traces = append(traces, td)
		reports = append(reports, o.report)
		mu.Unlock()
		return nil
	})
	c2 := scrape()
	lab := svc.srv.Lab()
	b.set("lab.builds", "count", float64(lab.Builds()))
	b.set("lab.hits", "count", float64(lab.Hits()))
	if stopErr := svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, nil, err
	}
	if counted != nil {
		counted(c0, c1, c2, round.trials)
	}

	var submit, fetch, queued, run, setup []float64
	for _, o := range round.outs {
		submit = append(submit, secs(o.submit))
		fetch = append(fetch, secs(o.fetch))
	}
	for _, td := range traces {
		q, r, s, ok := jobTimes(td)
		if !b.check(ok, "trace %s lacks job.queued or job.run", td.TraceID) {
			continue
		}
		queued = append(queued, q)
		run = append(run, r)
		setup = append(setup, s)
	}
	b.set("server.submit_s", "s", median(submit))
	b.set("server.report_fetch_s", "s", median(fetch))
	b.set("server.queue_wait_s", "s", median(queued))
	b.set("server.run_s", "s", median(run))
	b.set("server.job_setup_s", "s", median(setup))
	return reports, traces, b.journalLayer(svc.state)
}

// journalLayer times FileStore.SaveJob, the append the server makes on
// every job state change, on the jobs the run persisted.
func (b *bench) journalLayer(state string) error {
	jobs, err := server.NewFileStore(state).Load()
	if err != nil {
		return err
	}
	if !b.check(len(jobs) > 0, "the server persisted no jobs") {
		return nil
	}
	path := filepath.Join(filepath.Dir(state), "journal-probe.json")
	st := server.NewFileStore(path)
	journal := path + ".journal"
	var appends []float64
	var bytesTotal int64
	for n := 0; n < 200; n++ { // below the store's compaction threshold
		j := jobs[n%len(jobs)]
		before := fileSize(journal)
		t := time.Now()
		if err := st.SaveJob(j); err != nil {
			return err
		}
		appends = append(appends, secs(time.Since(t))*1e6)
		bytesTotal += fileSize(journal) - before
	}
	if err := st.Save(jobs); err != nil { // compacts and closes the journal
		return err
	}
	b.set("server.journal_append_us", "us", median(appends))
	b.set("server.journal_bytes_per_job", "bytes", float64(bytesTotal)/float64(len(appends)))
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		panic(err)
	}
	return fi.Size()
}

// serviceProbe measures the server layers for the campaign workloads,
// which do not touch the server: one round pair of a small job mix.
func (b *bench) serviceProbe() error {
	sz := b.cfg.size
	sz.serviceApps = sz.serviceApps[:1]
	_, _, err := b.serviceLayers(newServicePlan(b.cfg.seed, sz), nil)
	return err
}

// tracedService is the traced run of service_jobs.
func (b *bench) tracedService(plan *servicePlan) error {
	raw, traces, err := b.serviceLayers(plan, func(c0, c1, c2 counters, trials int) {
		b.setCounts(c0, c1, c2, trials)
	})
	if err != nil {
		return err
	}
	var spans spanStats
	for _, td := range traces {
		spans.add(td)
	}
	b.setSpanStats(&spans)
	var reports []*exp.Report
	for _, r := range raw {
		var rs []*exp.Report
		if err := json.Unmarshal(r, &rs); err != nil {
			return err
		}
		reports = append(reports, rs...)
	}
	b.set("exp.render_s", "s", timeRender(func(buf *bytes.Buffer) error {
		if err := exp.WriteJSON(buf, reports); err != nil {
			return err
		}
		if err := exp.WriteCSV(buf, reports); err != nil {
			return err
		}
		for _, r := range reports {
			buf.WriteString(r.RenderText())
		}
		return nil
	}))

	// The layers beneath the server, probed on the jobs' Lab keys, and
	// the tracing overhead on the jobs' campaign points.
	cp := plan.campaignPlan()
	subs, newEngine, err := b.setUp(cp)
	if err != nil {
		return err
	}
	b.checkClean(subs)
	b.set("campaign.new_s", "s", secs(newEngine))
	if err := b.probeLayers(subs); err != nil {
		return err
	}
	b.warmUp(cp, subs)
	return b.traceOverhead(cp, subs)
}

// campaignPlan turns the job mix into campaign points on one subject per
// Lab key, with the engine's default shard size as the service uses.
func (p *servicePlan) campaignPlan() *campaignPlan {
	cp := &campaignPlan{seed: p.seed}
	index := map[string]int{}
	for _, j := range p.jobs {
		k := j.key()
		si, seen := index[k]
		if !seen {
			si = len(cp.subjects)
			index[k] = si
			cp.subjects = append(cp.subjects, subject{app: mustApp(j.benchmark), policy: j.policy, hardened: j.hardened})
		}
		for _, e := range j.errors {
			cp.points = append(cp.points, pointSpec{subject: si, errors: e, trials: j.trials, recoveries: j.recovery})
		}
	}
	return cp
}
