// Checkpoint-restore recovery: the detect half of detect→recover lives in
// internal/harden (trapdet checks end a run with Outcome Detected); this
// file closes the loop. RunRecover wraps RunFrom so a Detected trial does
// not halt: it restores the latest checkpoint strictly *before* the
// detection point — measured in eligible-stream position, the only
// coordinate shared by the golden pass and a diverged trial — and replays
// with the injections that had not yet fired. A transient fault does not
// recur on replay, so the fired prefix of the plan is dropped; every
// remaining injection has an ordinal beyond the restored checkpoint and
// still fires.
//
// Termination: a Detected replay necessarily fired at least one more
// injection (a restored machine holds uncorrupted golden state and follows
// the golden path — which never traps — until the next flip lands), so the
// remaining-injection suffix shrinks strictly every round and the loop
// ends after at most len(Injections) replays even without the MaxAttempts
// bound. The instruction budget is shared across attempts: work already
// executed (original attempt plus every replay, excluding checkpoint-
// skipped prefixes) is charged against maxInstr, so recovery cannot turn a
// bounded trial into an unbounded one.
package sim

import "bytes"

// RecoveryPolicy parameterises checkpoint-restore recovery for Detected
// trials.
type RecoveryPolicy struct {
	// MaxAttempts bounds how many restore-replay rounds one trial may
	// consume. Zero (the default) disables recovery entirely: RunRecover
	// degenerates to RunFrom and Detected stays a terminal outcome.
	MaxAttempts int
}

// Enabled reports whether the policy permits any recovery.
func (p RecoveryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// RunRecover is RunFrom plus recovery: when the trial ends Detected and
// the policy allows it, restore the latest checkpoint strictly before the
// detection point and replay with the not-yet-fired injections, repeating
// on re-detection until the trial settles or the attempt/instruction
// budget runs out. The end state is classified as:
//
//   - Recovered: a replay completed with output bit-identical to the
//     golden run — the fault was fully absorbed.
//   - OK: a replay completed but the output differs (an SDC that survived
//     rollback; campaigns report it as a degraded completion).
//   - Detected: recovery disabled or exhausted; the last detection's
//     DetectInstret/DetectPC are reported.
//   - Crash/Timeout: a replay crashed or the shared budget ran out.
//
// The returned Result accumulates across attempts: Injected counts every
// flip that fired in any attempt and Elided every one of those elided,
// FirstInjectInstret is from the earliest fired flip, and
// RecoveryAttempts/RecoverInstret account the replay work.
func (rn *Runner) RunRecover(idx int, plan *FaultPlan, maxInstr uint64, pol RecoveryPolicy) Result {
	res := rn.RunFrom(idx, plan, maxInstr)
	if !pol.Enabled() || res.Outcome != Detected || plan == nil {
		return res
	}
	r := rn.rec
	budget := maxInstr
	if budget == 0 {
		budget = r.cfg.MaxInstr
	}
	// spent charges only instructions actually executed — the restored
	// prefix a checkpoint skipped was never run, so it never counts.
	spent := res.Instret - snapInstret(r, idx)
	fired, elided := res.Injected, res.Elided
	first := res.FirstInjectInstret
	attempts := 0
	var replayed uint64
	for res.Outcome == Detected && attempts < pol.MaxAttempts && spent < budget {
		// Restore strictly before the detection point in eligible-stream
		// position: every remaining injection has At > res.EligibleExec,
		// so all of them still fire in the replay.
		rIdx := r.SnapshotBefore(res.EligibleExec + 1)
		replay := plan
		if fired > 0 {
			replay = &FaultPlan{Eligible: plan.Eligible, Injections: plan.Injections[fired:]}
		}
		base := snapInstret(r, rIdx)
		attempts++
		res = rn.RunFrom(rIdx, replay, base+(budget-spent))
		work := res.Instret - base
		spent += work
		replayed += work
		if res.Injected > 0 && first == 0 {
			first = res.FirstInjectInstret
		}
		fired += res.Injected
		elided += res.Elided
	}
	res.Injected, res.Elided = fired, elided
	res.FirstInjectInstret = first
	res.RecoveryAttempts = attempts
	res.RecoverInstret = replayed
	if res.Outcome == OK && bytes.Equal(res.Output, r.Result.Output) {
		res.Outcome = Recovered
	}
	return res
}

// RunRecover is Runner.RunRecover on throwaway per-call state; callers
// running many trials should hold a Runner instead.
func (r *Recording) RunRecover(idx int, plan *FaultPlan, maxInstr uint64, pol RecoveryPolicy) Result {
	rn := r.NewRunner()
	defer rn.Close()
	return rn.RunRecover(idx, plan, maxInstr, pol)
}

// snapInstret is the retirement count a run resumed from checkpoint idx
// starts at (0 for from-scratch).
func snapInstret(r *Recording, idx int) uint64 {
	if idx < 0 {
		return 0
	}
	return r.snaps[idx].Instret
}
