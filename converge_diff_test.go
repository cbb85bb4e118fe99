package etap

// The convergence differential: a trial restored from a checkpoint stops
// simulating once it is back in the golden run's exact state and takes the
// recorded golden tail (internal/sim/converge.go). Over every benchmark,
// original and hardened, and at several error counts, that Result — and
// the Result of the recovery loop built on it — must equal a from-scratch
// oracle in every field but ConvergedAt and Elided. A from-scratch sim.Run
// never restores, so it never converges, and it applies every flip; the
// recordings here carry analysis.Classify's benign mask, so the restored
// trials elide the flips that strike benign sites on the golden path, and
// the differential pins that elision too.

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"etap/internal/analysis"
	"etap/internal/apps/all"
	"etap/internal/fault"
	"etap/internal/isa"
	"etap/internal/sim"
)

// convergeSubject is one program under test with the mask its campaigns
// inject under.
type convergeSubject struct {
	name  string
	prog  *isa.Program
	mask  []bool
	input []byte
}

// oracleRecover is sim.Runner.RunRecover with every attempt replayed from
// scratch by sim.Run on the injections that have not fired yet and the
// budget that is left. The budget is charged exactly as RunRecover
// charges it: a restore skips the prefix up to its checkpoint, so only
// what follows it counts.
func oracleRecover(s convergeSubject, rec *sim.Recording, idx int, plan *sim.FaultPlan, budget uint64, maxAttempts int) sim.Result {
	run := func(p *sim.FaultPlan, maxInstr uint64) sim.Result {
		return sim.Run(s.prog, sim.Config{Input: s.input, Plan: p, MaxInstr: maxInstr})
	}
	snapAt := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		return rec.Snapshots()[i].Instret
	}
	res := run(plan, budget)
	if res.Outcome != sim.Detected {
		return res
	}
	spent := res.Instret - snapAt(idx)
	fired, first := res.Injected, res.FirstInjectInstret
	attempts := 0
	var replayed uint64
	for res.Outcome == sim.Detected && attempts < maxAttempts && spent < budget {
		base := snapAt(rec.SnapshotBefore(res.EligibleExec + 1))
		attempts++
		res = run(&sim.FaultPlan{Eligible: plan.Eligible, Injections: plan.Injections[fired:]}, base+(budget-spent))
		work := res.Instret - base
		spent += work
		replayed += work
		if res.Injected > 0 && first == 0 {
			first = res.FirstInjectInstret
		}
		fired += res.Injected
	}
	res.Injected, res.FirstInjectInstret = fired, first
	res.RecoveryAttempts, res.RecoverInstret = attempts, replayed
	if res.Outcome == sim.OK && string(res.Output) == string(rec.Result.Output) {
		res.Outcome = sim.Recovered
	}
	return res
}

// convergeSubjects builds every benchmark at PolicyControlAddr, original
// and hardened with the default transforms. mpeg's hardened golden pass
// is the slowest recording in the suite, so -short leaves it out; under
// the race detector only adpcm and gsm run.
func convergeSubjects(t *testing.T) []convergeSubject {
	t.Helper()
	var subs []convergeSubject
	for _, app := range all.Apps() {
		if raceEnabled && app.Name() != "adpcm" && app.Name() != "gsm" {
			continue
		}
		sys, err := Build(app.Source(), PolicyControlAddr)
		if err != nil {
			t.Fatalf("%s: build: %v", app.Name(), err)
		}
		subs = append(subs, convergeSubject{app.Name(), sys.prog, sys.report.Tagged, app.Input()})
		if testing.Short() && app.Name() == "mpeg" {
			continue
		}
		h, err := sys.Harden(DefaultHardenOptions())
		if err != nil {
			t.Fatalf("%s: harden: %v", app.Name(), err)
		}
		subs = append(subs, convergeSubject{app.Name() + "/hardened", h.prog, h.res.PrimaryProtected, app.Input()})
	}
	return subs
}

// benignOrdinal returns an ordinal of s.mask's eligible stream, near its
// middle, whose site analysis.Classify marks benign, or 0 when the clean
// run executes no such site. A flip there is elided on the golden path,
// which random plans rarely hit: benign sites are under 3% of the tagged
// stream.
func benignOrdinal(s convergeSubject, benign []bool) uint64 {
	only := make([]bool, len(s.mask))
	for i := range only {
		only[i] = s.mask[i] && benign[i]
	}
	n := sim.Run(s.prog, sim.Config{Input: s.input, Plan: &sim.FaultPlan{Eligible: only}}).EligibleExec
	if n == 0 {
		return 0
	}
	// The retirement count at which the middle benign execution fires,
	// then the tagged stream's position at that same instruction.
	at := sim.Run(s.prog, sim.Config{Input: s.input, Plan: &sim.FaultPlan{Eligible: only,
		Injections: []sim.Injection{{At: (n + 1) / 2}}}}).FirstInjectInstret
	return sim.Run(s.prog, sim.Config{Input: s.input, Plan: &sim.FaultPlan{Eligible: s.mask}, MaxInstr: at}).EligibleExec
}

func TestConvergenceDifferential(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	var converged, elided, detected, recovered atomic.Int64
	t.Run("subjects", func(t *testing.T) {
		for _, s := range convergeSubjects(t) {
			s := s
			t.Run(s.name, func(t *testing.T) {
				t.Parallel()
				cls, err := analysis.Classify(s.prog)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := sim.Record(s.prog, sim.Config{Input: s.input, Plan: &sim.FaultPlan{Eligible: s.mask}}, sim.RecordOptions{Benign: cls.Benign})
				if err != nil {
					t.Fatal(err)
				}
				clean := rec.Result
				if clean.Outcome != sim.OK {
					t.Fatalf("golden run: %s (trap %s)", clean.Outcome, clean.Trap)
				}
				budget := clean.Instret * 2
				rn := rec.NewRunner()
				defer rn.Close()
				check := func(errs, i int, plan *sim.FaultPlan) {
					t.Helper()
					idx := len(rec.Snapshots()) - 1
					if len(plan.Injections) > 0 {
						idx = rec.SnapshotBefore(plan.Injections[0].At)
					}
					want := sim.Run(s.prog, sim.Config{Input: s.input, Plan: plan, MaxInstr: budget})
					got := rn.RunFrom(idx, plan, budget)
					if got.ConvergedAt != 0 {
						converged.Add(1)
					}
					if got.Elided != 0 {
						elided.Add(1)
					}
					got.ConvergedAt, got.Elided = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("errors=%d trial %d: RunFrom(%d) differs from scratch\nrestored: %+v\nscratch:  %+v\nplan: %+v",
							errs, i, idx, got, want, plan.Injections)
					}
					if want.Outcome == sim.Detected {
						detected.Add(1)
					}
					// The same trial from the root, the machine before
					// its first instruction.
					got = rn.RunFrom(-1, plan, budget)
					got.ConvergedAt, got.Elided = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("errors=%d trial %d: RunFrom(-1) differs from scratch\nrestored: %+v\nscratch:  %+v\nplan: %+v",
							errs, i, got, want, plan.Injections)
					}

					const maxAttempts = 3
					for _, from := range []int{idx, -1} {
						gotR := rn.RunRecover(from, plan, budget, sim.RecoveryPolicy{MaxAttempts: maxAttempts})
						wantR := oracleRecover(s, rec, from, plan, budget, maxAttempts)
						gotR.ConvergedAt, gotR.Elided = 0, 0
						if !reflect.DeepEqual(gotR, wantR) {
							t.Fatalf("errors=%d trial %d: RunRecover(%d) differs from the scratch replay oracle\nrestored: %+v\noracle:   %+v\nplan: %+v",
								errs, i, from, gotR, wantR, plan.Injections)
						}
						if from == idx && wantR.Outcome == sim.Recovered {
							recovered.Add(1)
						}
					}
				}
				benignAt := benignOrdinal(s, cls.Benign)
				rng := rand.New(rand.NewSource(int64(len(s.name))))
				for _, errs := range []int{0, 1, 2, 3, 4, 16} {
					for i := 0; i < trials; i++ {
						plan, err := fault.NewPlanBitsRand(rng, s.mask, clean.EligibleExec, errs, 0, 31)
						if err != nil {
							t.Fatal(err)
						}
						check(errs, i, plan)
						if benignAt == 0 || errs == 0 {
							continue
						}
						// The same plan led by a flip on a benign site: it
						// is elided, and the trial either converges (no
						// later flip) or runs again applying every flip.
						led := &sim.FaultPlan{Eligible: s.mask, Injections: []sim.Injection{{At: benignAt, Bit: uint8(i)}}}
						for _, inj := range plan.Injections {
							if inj.At > benignAt {
								led.Injections = append(led.Injections, inj)
							}
						}
						check(errs, i, led)
					}
				}
			})
		}
	})
	t.Logf("converged %d restored trials, %d with elided flips; %d detected, %d recovered",
		converged.Load(), elided.Load(), detected.Load(), recovered.Load())
	if converged.Load() == 0 || elided.Load() == 0 || detected.Load() == 0 || recovered.Load() == 0 {
		t.Fatalf("the sweep did not exercise convergence, elision and recovery: converged=%d elided=%d detected=%d recovered=%d",
			converged.Load(), elided.Load(), detected.Load(), recovered.Load())
	}
}
