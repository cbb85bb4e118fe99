package main

import (
	"math/rand"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/core"
)

// BaselineSeed is the seed the recorded baseline figures in README.md
// were measured at; HeldOutSeed is kept out of tuning, and a claimed
// gain must hold on it too.
const (
	BaselineSeed = 1
	HeldOutSeed  = 7
)

// subject is one program a workload injects into: an application under
// an analysis policy, optionally hardened (dup-compare plus signatures).
type subject struct {
	app      apps.App
	policy   core.Policy
	hardened bool
}

func (s subject) String() string {
	name := s.app.Name() + "/" + s.policy.String()
	if s.hardened {
		name += "/hardened"
	}
	return name
}

// pointSpec is one campaign point of a workload's round.
type pointSpec struct {
	subject    int // index into the workload's subjects
	errors     int
	trials     int
	recoveries int
}

// campaignPlan is a campaign workload: its subjects and the points one
// round runs. Every round runs every point once; rounds differ only in
// the seeds of their points and the order the points run in.
type campaignPlan struct {
	subjects []subject
	points   []pointSpec
	seed     int64
	// shards is how many shards a subject's smallest point splits into;
	// 0 keeps the engine's default shard size.
	shards int
}

// shardSize is the subject's engine shard size. The campaign workloads
// split each subject's smallest point into four shards, so a re-run at
// more workers shares the point out and the traced run sees several
// campaign.shard spans per point.
func (p *campaignPlan) shardSize(subject int) int {
	if p.shards == 0 {
		return 0
	}
	least := 0
	for _, ps := range p.points {
		if ps.subject == subject && (least == 0 || ps.trials < least) {
			least = ps.trials
		}
	}
	return max(least/p.shards, 1)
}

// pointSeed is the campaign seed of point i in round r. Round 0 is the
// canonical round whose reports are digested and re-checked.
func (p *campaignPlan) pointSeed(r, i int) int64 {
	return mix(p.seed, int64(r), int64(i)) | 1
}

// order is the order round r runs its points in.
func (p *campaignPlan) order(r int) []int {
	rng := rand.New(rand.NewSource(mix(p.seed, int64(r), -1)))
	return rng.Perm(len(p.points))
}

// checkPoint is the point of round 0 that is re-run at another
// worker count.
func (p *campaignPlan) checkPoint() int {
	return rand.New(rand.NewSource(mix(p.seed, -2, 0))).Intn(len(p.points))
}

// sizes scales the workloads: full for measured runs, tiny for the
// self-test.
type sizes struct {
	budgetDiv      int // divides every campaign point's trial budget
	jobTrials      int // trials per point of an unhardened service job
	hardJobTrials  int // trials per point of a hardened service job
	setupReps      int // set-ups per run; setup_s is their median
	minJobs        int // service jobs a timed run completes at least
	sweepApps      []string
	hardenApps     []string
	serviceApps    []string
	probeLayerReps int // repetitions of the cheap layer probes
}

var fullSize = sizes{
	budgetDiv:      1,
	jobTrials:      4,
	hardJobTrials:  1,
	setupReps:      5,
	minJobs:        100,
	sweepApps:      all.Names(),
	hardenApps:     []string{"susan", "mcf", "blowfish", "gsm", "art", "adpcm"},
	serviceApps:    []string{"adpcm", "gsm", "blowfish", "mcf"},
	probeLayerReps: 5,
}

var tinySize = sizes{
	budgetDiv:      1 << 10,
	jobTrials:      2,
	hardJobTrials:  1,
	setupReps:      1,
	minJobs:        1,
	sweepApps:      []string{"gsm", "adpcm"},
	hardenApps:     []string{"gsm", "adpcm"},
	serviceApps:    []string{"adpcm", "gsm"},
	probeLayerReps: 1,
}

func mustApp(name string) apps.App {
	a, ok := all.ByName(name)
	if !ok {
		panic("unknown benchmark " + name)
	}
	return a
}

// Trial budgets per application of the campaign workloads' two points,
// sized so that every point takes about 0.3s with one campaign worker
// on the 2-CPU machine the baseline was measured on. Point latencies
// then form one cluster, so their median and 90th percentile do not
// jump between clusters from run to run.
var (
	// errors=1 and errors=16 on the protected program.
	sweepBudget = map[string][2]int{
		"susan": {16, 10}, "mpeg": {7, 4}, "mcf": {48, 12}, "blowfish": {128, 64},
		"gsm": {80, 48}, "art": {32, 16}, "adpcm": {96, 32},
	}
	// errors=1 and errors=4 on the hardened program, recovery on.
	hardenBudget = map[string][2]int{
		"susan": {4, 2}, "mcf": {12, 8}, "blowfish": {12, 8},
		"gsm": {16, 12}, "art": {6, 4}, "adpcm": {16, 12},
	}
)

// sweepPlan is campaign_sweep: protected (control+addr) campaigns on all
// seven applications, a single-error point where masking dominates and
// a 16-error point where most trials diverge.
func sweepPlan(seed int64, sz sizes) *campaignPlan {
	p := &campaignPlan{seed: seed, shards: 4}
	for i, name := range sz.sweepApps {
		b := sweepBudget[name]
		p.subjects = append(p.subjects, subject{app: mustApp(name), policy: core.PolicyControlAddr})
		p.points = append(p.points,
			pointSpec{subject: i, errors: 1, trials: max(b[0]/sz.budgetDiv, 2)},
			pointSpec{subject: i, errors: 16, trials: max(b[1]/sz.budgetDiv, 2)})
	}
	return p
}

// hardenPlan is harden_recover: detection campaigns on hardened programs
// with up to three restore-replay rounds per detected trial, at one and
// four errors per trial.
func hardenPlan(seed int64, sz sizes) *campaignPlan {
	p := &campaignPlan{seed: seed, shards: 4}
	for i, name := range sz.hardenApps {
		b := hardenBudget[name]
		p.subjects = append(p.subjects, subject{app: mustApp(name), policy: core.PolicyControlAddr, hardened: true})
		p.points = append(p.points,
			pointSpec{subject: i, errors: 1, trials: max(b[0]/sz.budgetDiv, 2), recoveries: 3},
			pointSpec{subject: i, errors: 4, trials: max(b[1]/sz.budgetDiv, 2), recoveries: 3})
	}
	return p
}

// jobSpec is one service job: a benchmark sweep request.
type jobSpec struct {
	benchmark string
	policy    core.Policy
	hardened  bool
	errors    []int
	trials    int
	recovery  int
	seed      int64
}

// key is the job's Lab key: (source, policy, harden).
func (j jobSpec) key() string {
	return subject{app: mustApp(j.benchmark), policy: j.policy, hardened: j.hardened}.String()
}

// servicePlan is service_jobs: one round is a fixed multiset of small
// benchmark sweeps in which every Lab key appears twice. The seed only
// orders each round and seeds the jobs' campaigns. Rounds run in pairs
// that share their campaign seeds, so every job is repeated and must
// return an identical report, while each pair brings new faults.
type servicePlan struct {
	jobs []jobSpec
	seed int64
	// warm lists one warm-up job per application, run during set-up.
	warm []jobSpec
}

func newServicePlan(seed int64, sz sizes) *servicePlan {
	p := &servicePlan{seed: seed}
	// Per application: the base key (control+addr) twice; for every
	// other application also one other policy twice and the hardened
	// base key with recovery twice.
	others := []core.Policy{core.PolicyControl, core.PolicyConservative}
	for i, name := range sz.serviceApps {
		add := func(pol core.Policy, hard bool, errors []int, trials, recovery int) {
			p.jobs = append(p.jobs, jobSpec{benchmark: name, policy: pol, hardened: hard,
				errors: errors, trials: trials, recovery: recovery})
		}
		add(core.PolicyControlAddr, false, []int{1}, sz.jobTrials, 0)
		add(core.PolicyControlAddr, false, []int{1, 2}, sz.jobTrials/2, 0)
		if i%2 == 0 {
			pol := others[(i/2)%len(others)]
			add(pol, false, []int{2}, sz.jobTrials, 0)
			add(pol, false, []int{1, 4}, sz.jobTrials/2, 0)
			add(core.PolicyControlAddr, true, []int{1}, sz.hardJobTrials, 3)
			add(core.PolicyControlAddr, true, []int{2}, sz.hardJobTrials, 3)
		}
		p.warm = append(p.warm, jobSpec{benchmark: name, policy: core.PolicyControlAddr,
			errors: []int{1}, trials: sz.jobTrials, seed: mix(seed, -5, int64(i)) | 1})
	}
	return p
}

// job is job i of round r, with its campaign seed.
func (p *servicePlan) job(r, i int) jobSpec {
	j := p.jobs[i]
	j.seed = mix(p.seed, int64(r/2), int64(i)) | 1
	return j
}

// order is the order round r submits its jobs in.
func (p *servicePlan) order(r int) []int {
	rng := rand.New(rand.NewSource(mix(p.seed, int64(r), -3)))
	return rng.Perm(len(p.jobs))
}

// mix derives a seed from a base seed and two indices, so every
// (seed, round, point) triple gets a decorrelated seed.
func mix(seed, a, b int64) int64 {
	x := splitmix(uint64(seed))
	x = splitmix(x ^ uint64(a))
	x = splitmix(x ^ uint64(b))
	return int64(x >> 1)
}

// splitmix is the splitmix64 step: an add and a bijective finaliser.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
