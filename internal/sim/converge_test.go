package sim_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"etap/internal/analysis"
	"etap/internal/asm"
	"etap/internal/isa"
	"etap/internal/obs"
	"etap/internal/sim"
)

// convProgram runs 400 iterations of an eight-instruction body. The first
// addi computes a dead value ($t3 is overwritten two instructions later),
// so a flip there dies out within the iteration; the add feeds the
// printed sum, so a flip there never dies; the lui/ori pair is a fused
// superinstruction; the counter addi controls the trip count.
const convProgram = `
.text
.func __start
	li $t0, 0
	li $t1, 0
loop:
	addi $t3, $t0, 5
	add $t1, $t1, $t0
	li $t3, 0
	lui $t2, 0x1234
	ori $t2, $t2, 0x5678
	addi $t0, $t0, 1
	slti $at, $t0, 400
	bnez $at, loop
	addi $sp, $sp, -4
	sw $t1, 0($sp)
	move $a0, $sp
	li $a1, 4
	li $v0, 4
	syscall
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

// convFixture is an assembled program plus the text indices of the
// instructions the tests inject into or stop at.
type convFixture struct {
	p                  *isa.Program
	dead, sum, counter int // eligible slots
	ori                int // second half of the fused lui/ori pair
	mask               []bool
}

func assembleConv(t *testing.T) convFixture {
	t.Helper()
	p, err := asm.Assemble(convProgram)
	if err != nil {
		t.Fatal(err)
	}
	f := convFixture{p: p, dead: -1, sum: -1, counter: -1, ori: -1}
	for i, in := range p.Text {
		switch {
		case in.Op == isa.ADDI && in.Imm == 5 && f.dead < 0:
			f.dead = i
		case in.Op == isa.ADD && f.sum < 0:
			f.sum = i
		case in.Op == isa.ORI && in.Imm == 0x5678:
			f.ori = i
		case in.Op == isa.ADDI && in.Imm == 1 && in.Rd == in.Rs && f.counter < 0:
			f.counter = i
		}
	}
	if f.dead < 0 || f.sum < 0 || f.counter < 0 || f.ori < 0 || p.Text[f.ori-1].Op != isa.LUI {
		t.Fatalf("fixture layout changed: dead=%d sum=%d counter=%d ori=%d", f.dead, f.sum, f.counter, f.ori)
	}
	f.mask = make([]bool, len(p.Text))
	f.mask[f.dead], f.mask[f.sum], f.mask[f.counter] = true, true, true
	return f
}

// recordConv records a golden pass of p under mask and cfg.
func recordConv(t *testing.T, p *isa.Program, mask []bool, cfg sim.Config, interval uint64) *sim.Recording {
	t.Helper()
	cfg.Plan = &sim.FaultPlan{Eligible: mask}
	rec, err := sim.Record(p, cfg, sim.RecordOptions{Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Outcome != sim.OK {
		t.Fatalf("golden outcome %s (trap %s)", rec.Result.Outcome, rec.Result.Trap)
	}
	return rec
}

// scratchOracle runs plan from instruction zero on the plain engine: a
// run that never restores and so never converges.
func scratchOracle(p *isa.Program, cfg sim.Config, plan *sim.FaultPlan, budget uint64) sim.Result {
	cfg.Plan = plan
	cfg.MaxInstr = budget
	return sim.Run(p, cfg)
}

// matchScratch requires got to equal the from-scratch Result in every
// field but ConvergedAt, and returns got's ConvergedAt.
func matchScratch(t *testing.T, what string, got, want sim.Result) uint64 {
	t.Helper()
	at := got.ConvergedAt
	got.ConvergedAt = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: restored run differs from scratch\nrestored: %+v\nscratch:  %+v", what, got, want)
	}
	return at
}

// deadAfter schedules one flip into the dead addi just after checkpoint
// idx, so the trial restores from idx.
func deadAfter(f convFixture, rec *sim.Recording, idx int, bit uint8) *sim.FaultPlan {
	// The eligible stream holds three ordinals per iteration (dead, sum,
	// counter); the dead slot is the one at 1 mod 3.
	at := rec.Snapshots()[idx].EligCount + 1
	for at%3 != 1 {
		at++
	}
	return &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{{At: at, Bit: bit}}}
}

func TestConvergeDeadFaultTakesGoldenTail(t *testing.T) {
	f := assembleConv(t)
	rec := recordConv(t, f.p, f.mask, sim.Config{}, 64)
	snaps := rec.Snapshots()
	idx := len(snaps) / 3
	plan := deadAfter(f, rec, idx, 7)
	if got := rec.SnapshotBefore(plan.Injections[0].At); got != idx {
		t.Fatalf("plan restores from %d, want %d", got, idx)
	}

	converged := obs.Default().Counter("etap_sim_trials_converged_total", "")
	skipped := obs.Default().Counter("etap_sim_instructions_skipped_total", "")
	c0, s0 := converged.Value(), skipped.Value()

	res := rec.RunFrom(idx, plan, 0)
	at := matchScratch(t, "dead fault", res, scratchOracle(f.p, sim.Config{}, plan, 0))
	if at != snaps[idx+1].Instret {
		t.Fatalf("converged at %d, want the next checkpoint %d", at, snaps[idx+1].Instret)
	}
	if res.Injected != 1 || res.FirstInjectInstret == 0 {
		t.Fatalf("the trial's own injection fields were lost: injected=%d first=%d", res.Injected, res.FirstInjectInstret)
	}
	if d := converged.Value() - c0; d != 1 {
		t.Fatalf("etap_sim_trials_converged_total moved by %v, want 1", d)
	}
	if d := skipped.Value() - s0; d != float64(rec.Result.Instret-at) {
		t.Fatalf("etap_sim_instructions_skipped_total moved by %v, want %d", d, rec.Result.Instret-at)
	}

	// A live fault never converges, and the segmented run it goes through
	// still matches an uninterrupted one.
	live := &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{{At: plan.Injections[0].At + 1, Bit: 3}}}
	if at := matchScratch(t, "live fault", rec.RunFrom(idx, live, 0), scratchOracle(f.p, sim.Config{}, live, 0)); at != 0 {
		t.Fatalf("a fault in the printed sum converged at %d", at)
	}
}

// TestConvergeFusedPairStraddlesBoundary stops the engine between the two
// halves of a fused lui/ori pair: the checkpoint sits on the ori slot, so
// the segment ends with only the lui retired, the check compares the
// machine there, and a non-converging run resumes mid-pair.
func TestConvergeFusedPairStraddlesBoundary(t *testing.T) {
	f := assembleConv(t)
	for interval := uint64(64); interval < 128; interval++ {
		rec := recordConv(t, f.p, f.mask, sim.Config{}, interval)
		snaps := rec.Snapshots()
		for j := 1; j < len(snaps); j++ {
			if snaps[j].PC != f.ori {
				continue
			}
			plan := deadAfter(f, rec, j-1, 11)
			if rec.SnapshotBefore(plan.Injections[0].At) != j-1 {
				continue
			}
			at := matchScratch(t, "dead fault", rec.RunFrom(j-1, plan, 0), scratchOracle(f.p, sim.Config{}, plan, 0))
			if at != snaps[j].Instret {
				t.Fatalf("interval %d: converged at %d, want the mid-pair checkpoint %d", interval, at, snaps[j].Instret)
			}
			live := &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{{At: plan.Injections[0].At + 1, Bit: 1}}}
			if at := matchScratch(t, "live fault", rec.RunFrom(j-1, live, 0), scratchOracle(f.p, sim.Config{}, live, 0)); at != 0 {
				t.Fatalf("interval %d: live fault converged at %d", interval, at)
			}
			return
		}
	}
	t.Fatal("no interval in [64, 128) puts a checkpoint on the ori slot")
}

// TestConvergeExitAtCheckpoint: a trial whose counter flip shortens the
// loop exits on exactly a checkpoint's Instret. The segment ending there
// must report the exit, not treat it as a boundary.
func TestConvergeExitAtCheckpoint(t *testing.T) {
	f := assembleConv(t)
	golden := sim.Run(f.p, sim.Config{Plan: &sim.FaultPlan{Eligible: f.mask}})
	for iter := uint64(40); iter < 48; iter++ {
		for bit := uint8(1); bit < 9; bit++ {
			// The counter slot is ordinal 3 mod 3 within each iteration.
			plan := &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{{At: 3*iter + 3, Bit: bit}}}
			want := scratchOracle(f.p, sim.Config{}, plan, 0)
			if want.Outcome != sim.OK || want.Instret >= golden.Instret {
				continue
			}
			for interval := uint64(16); interval <= want.Instret/4; interval++ {
				if want.Instret%interval != 0 {
					continue
				}
				rec := recordConv(t, f.p, f.mask, sim.Config{}, interval)
				idx := rec.SnapshotBefore(plan.Injections[0].At)
				if idx < 0 || len(rec.Snapshots()) < int(want.Instret/interval) {
					continue
				}
				if s := rec.Snapshots()[want.Instret/interval-1]; s.Instret != want.Instret {
					t.Fatalf("checkpoint cadence: snapshot %d at %d, want %d", want.Instret/interval-1, s.Instret, want.Instret)
				}
				if at := matchScratch(t, "exit at checkpoint", rec.RunFrom(idx, plan, 0), want); at != 0 {
					t.Fatalf("a trial exiting early converged at %d", at)
				}
				return
			}
		}
	}
	t.Fatal("no counter flip ends the run on a checkpoint")
}

// TestConvergePendingInjection: a dead first flip alone would converge at
// the next checkpoint, but a second flip still pending there must keep
// the trial running until the boundary after it has fired.
func TestConvergePendingInjection(t *testing.T) {
	f := assembleConv(t)
	rec := recordConv(t, f.p, f.mask, sim.Config{}, 64)
	snaps := rec.Snapshots()
	idx := 4
	first := deadAfter(f, rec, idx, 4).Injections[0]
	second := deadAfter(f, rec, idx+2, 9).Injections[0]
	plan := &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{first, second}}
	res := rec.RunFrom(idx, plan, 0)
	at := matchScratch(t, "pending injection", res, scratchOracle(f.p, sim.Config{}, plan, 0))
	if res.Injected != 2 {
		t.Fatalf("injected %d, want 2", res.Injected)
	}
	if at != snaps[idx+3].Instret {
		t.Fatalf("converged at %d, want %d: the first boundary after the second flip", at, snaps[idx+3].Instret)
	}
}

// TestConvergeBudget covers budgets around the checkpoints: one ending
// before the next checkpoint, one one short of the golden run (its tail
// would time out, so the trial must not converge), and one exactly the
// golden run's length (the tail fits, so it may).
func TestConvergeBudget(t *testing.T) {
	f := assembleConv(t)
	rec := recordConv(t, f.p, f.mask, sim.Config{}, 64)
	snaps := rec.Snapshots()
	idx := 5
	plan := deadAfter(f, rec, idx, 2)
	cases := []struct {
		name     string
		budget   uint64
		outcome  sim.Outcome
		converge bool
	}{
		{"before next checkpoint", snaps[idx+1].Instret - 3, sim.Timeout, false},
		{"one short of golden", rec.Result.Instret - 1, sim.Timeout, false},
		{"exactly golden", rec.Result.Instret, sim.OK, true},
	}
	for _, c := range cases {
		res := rec.RunFrom(idx, plan, c.budget)
		at := matchScratch(t, c.name, res, scratchOracle(f.p, sim.Config{}, plan, c.budget))
		if res.Outcome != c.outcome || (at != 0) != c.converge {
			t.Fatalf("%s: outcome %s converged at %d; want %s, converged=%v", c.name, res.Outcome, at, c.outcome, c.converge)
		}
	}
}

// outProgram prints one byte per iteration from a register that is dead
// after the write; the staging byte is cleared again, so a flip there
// leaves registers and memory golden and only the output wrong.
const outProgram = `
.text
.func __start
	li $t0, 0
	addi $sp, $sp, -16
loop:
	addi $t4, $t0, 65
	sb $t4, 0($sp)
	move $a0, $sp
	li $a1, 1
	li $v0, 4
	syscall
	sb $zero, 0($sp)
	li $t4, 0
	addi $t0, $t0, 1
	slti $at, $t0, 60
	bnez $at, loop
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

func TestConvergeRejectsSameLengthOutput(t *testing.T) {
	p, err := asm.Assemble(outProgram)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(p.Text))
	for i, in := range p.Text {
		if in.Op == isa.ADDI && in.Imm == 65 {
			mask[i] = true
		}
	}
	rec := recordConv(t, p, mask, sim.Config{}, 32)
	idx := 3
	plan := &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: rec.Snapshots()[idx].EligCount + 1, Bit: 0}}}
	res := rec.RunFrom(idx, plan, 0)
	if at := matchScratch(t, "output flip", res, scratchOracle(p, sim.Config{}, plan, 0)); at != 0 {
		t.Fatalf("a trial with a wrong output byte converged at %d", at)
	}
	if len(res.Output) != len(rec.Result.Output) || bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatalf("fixture: want same-length different output, got %q vs golden %q", res.Output, rec.Result.Output)
	}
}

// sparseProgram stores through a dead address register, then clears the
// word; the golden run touches a single sparse page, at the very end.
const sparseProgram = `
.text
.func __start
	li $t0, 0
	addi $sp, $sp, -16
loop:
	addi $t5, $sp, 0
	sw $t0, 0($t5)
	sw $zero, 0($t5)
	li $t5, 0
	addi $t0, $t0, 1
	slti $at, $t0, 60
	bnez $at, loop
	lui $t6, 0x4000
	sw $t0, 0($t6)
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

// TestConvergeRejectsExtraSparsePage: flipping bit 30 of the address
// sends one store pair to a fresh sparse page and leaves it all zero.
// Registers and fast memory are golden again, but the trial holds one
// more demand page, so with MaxPages 1 the golden run's final store
// exhausts memory. Converging would have reported a clean exit.
func TestConvergeRejectsExtraSparsePage(t *testing.T) {
	p, err := asm.Assemble(sparseProgram)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(p.Text))
	for i, in := range p.Text {
		if in.Op == isa.ADDI && in.Rd == isa.Reg(13) && in.Rs == isa.RegSP {
			mask[i] = true
		}
	}
	cfg := sim.Config{MaxPages: 1}
	rec := recordConv(t, p, mask, cfg, 32)
	idx := 2
	plan := &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: rec.Snapshots()[idx].EligCount + 1, Bit: 30}}}
	want := scratchOracle(p, cfg, plan, 0)
	if want.Outcome != sim.Crash || want.Trap.Kind != sim.TrapMemExhausted {
		t.Fatalf("fixture: scratch outcome %s (trap %s), want memory exhausted", want.Outcome, want.Trap)
	}
	if at := matchScratch(t, "extra sparse page", rec.RunFrom(idx, plan, 0), want); at != 0 {
		t.Fatalf("a trial holding an extra sparse page converged at %d", at)
	}
}

// TestRestoredEmptyOutputIsNil: a checkpoint taken before the first write
// hands a restored trial a nil output prefix, so a trial that stops
// before writing reports the same nil Output a from-scratch run does.
func TestRestoredEmptyOutputIsNil(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	idx := startFor(rec, plan)
	if idx < 0 {
		t.Fatal("fixture: the plan runs from scratch")
	}
	got := rec.RunFrom(idx, plan, 0)
	want := rec.RunFrom(-1, plan, 0)
	if got.Outcome != sim.Detected || want.Output != nil {
		t.Fatalf("fixture: outcome %s, scratch output %q", got.Outcome, want.Output)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored result differs from scratch\nrestored: %#v\nscratch:  %#v", got, want)
	}
}

// TestRecoverReplayConverges: a replay restores golden state with every
// remaining injection already fired, so it converges at its next
// checkpoint and the recovered result keeps its logical accounting.
func TestRecoverReplayConverges(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	idx := startFor(rec, plan)
	res := rec.RunRecover(idx, plan, 0, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Recovered || res.ConvergedAt == 0 {
		t.Fatalf("outcome %s converged at %d, want a recovered replay that converged", res.Outcome, res.ConvergedAt)
	}
	detected := rec.RunFrom(-1, plan, 0)
	rIdx := rec.SnapshotBefore(detected.EligibleExec + 1)
	if want := rec.Result.Instret - rec.Snapshots()[rIdx].Instret; res.RecoverInstret != want {
		t.Fatalf("replay work %d, want the logical %d", res.RecoverInstret, want)
	}
	if res.Instret != rec.Result.Instret {
		t.Fatalf("instret %d, want golden %d", res.Instret, rec.Result.Instret)
	}
}

// forkProgram warms up past a few checkpoints, then an eligible selector
// ($t7, zero in the golden run) picks between two paths, main and side,
// that retire the same number of instructions and leave the same
// registers. Flipping bit 0 of the selector takes the side path; both
// paths then idle past a few more checkpoints and run tail, unless side
// exits on its own. Before the fork, the program stores 3 at 0($sp) and
// at 0($t9), a sparse address.
func forkProgram(main, side, tail string) string {
	return `
.text
.func __start
	addi $sp, $sp, -16
	li $t1, 3
	sw $t1, 0($sp)
	lui $t9, 0x4000
	sw $t1, 0($t9)
	li $t1, 0
warm:
	addi $t1, $t1, 1
	slti $at, $t1, 100
	bnez $at, warm
	addi $t7, $zero, 0
	bnez $t7, side
` + main + `
	j join
side:
` + side + `
	j join
join:
	li $t7, 0
	li $t0, 0
idle:
	addi $t0, $t0, 1
	slti $at, $t0, 300
	bnez $at, idle
` + tail + `
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`
}

// forkTrial records a fork program with the selector and every load
// eligible, then runs the side-path trial from the last checkpoint before
// the selector and requires it to match its from-scratch run. It returns
// the trial, its ConvergedAt, and the recording.
func forkTrial(t *testing.T, src string, input []byte) (sim.Result, uint64, *sim.Recording) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(p.Text))
	for i, in := range p.Text {
		if (in.Op == isa.ADDI && in.Rd == isa.Reg(15) && in.Rs == isa.RegZero && in.Imm == 0) || in.Op == isa.LW {
			mask[i] = true
		}
	}
	cfg := sim.Config{Input: input}
	rec := recordConv(t, p, mask, cfg, 64)
	plan := &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: 1, Bit: 0}}}
	idx := rec.SnapshotBefore(1)
	if idx < 0 {
		t.Fatal("fixture: no checkpoint before the selector")
	}
	res := rec.RunFrom(idx, plan, 0)
	at := matchScratch(t, "side path", res, scratchOracle(p, cfg, plan, 0))
	return res, at, rec
}

// TestConvergeCountsTrialPath: the side path retires a load where the
// main path retires an ineligible addi, then rejoins it. The converged
// Result must carry the trial's own counts plus the golden tail's, not
// the golden totals.
func TestConvergeCountsTrialPath(t *testing.T) {
	res, at, rec := forkTrial(t, forkProgram("\taddi $t8, $zero, 3", "\tlw $t8, 0($sp)", ""), nil)
	if at == 0 {
		t.Fatal("the rejoined side path did not converge")
	}
	if res.EligibleExec != rec.Result.EligibleExec+1 || res.ClassCounts == rec.Result.ClassCounts {
		t.Fatalf("fixture: side path counts %d/%v equal the golden %d/%v",
			res.EligibleExec, res.ClassCounts, rec.Result.EligibleExec, rec.Result.ClassCounts)
	}
}

// printWord writes the word at 4($sp) to the output.
const printWord = `
	addi $a0, $sp, 4
	li $a1, 4
	li $v0, 4
	syscall`

// TestConvergeComparesPC: a side path that runs its own copy of the idle
// loop matches the golden registers and memory at every checkpoint while
// its pc does not, and then prints something else.
func TestConvergeComparesPC(t *testing.T) {
	side := `
	addi $zero, $zero, 0
	li $t7, 0
	li $t0, 0
sidle:
	addi $t0, $t0, 1
	slti $at, $t0, 300
	bnez $at, sidle
	li $t1, 66
	sw $t1, 4($sp)` + printWord + `
	li $a0, 0
	li $v0, 1
	syscall`
	tail := `
	li $t1, 65
	sw $t1, 4($sp)` + printWord
	res, at, _ := forkTrial(t, forkProgram("", side, tail), nil)
	if at != 0 {
		t.Fatalf("a trial on another copy of the loop converged at %d", at)
	}
	if res.Output[0] != 'B' {
		t.Fatalf("fixture: side path printed %q, want B", res.Output)
	}
}

// TestConvergeComparesGoldenDirtyPages: the main path stores to a page
// the side path never writes, so the trial's copy of that page is the
// restore checkpoint's, stale against the golden run's.
func TestConvergeComparesGoldenDirtyPages(t *testing.T) {
	res, at, rec := forkTrial(t, forkProgram("\tsw $sp, 4($sp)", "\taddi $zero, $zero, 0", printWord), nil)
	if at != 0 {
		t.Fatalf("a trial missing a golden store converged at %d", at)
	}
	if bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatal("fixture: the missing store did not reach the output")
	}
}

// TestConvergeComparesSparsePages: the main path overwrites a sparse page
// both runs hold; the side path leaves it alone, so the key sets match
// and only the page contents differ.
func TestConvergeComparesSparsePages(t *testing.T) {
	tail := `
	lw $t1, 0($t9)
	sw $t1, 4($sp)` + printWord
	res, at, rec := forkTrial(t, forkProgram("\tsw $sp, 0($t9)", "\taddi $zero, $zero, 0", tail), nil)
	if at != 0 {
		t.Fatalf("a trial missing a golden sparse store converged at %d", at)
	}
	if bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatal("fixture: the missing store did not reach the output")
	}
}

// TestConvergeComparesInputCursor: the side path consumes one input byte
// the main path does not, then discards it, so only the read position
// differs until the tail reads and prints the input.
func TestConvergeComparesInputCursor(t *testing.T) {
	main := `
	addi $a0, $sp, 8
	li $a1, 1
	li $v0, 1
	addi $zero, $zero, 0
	addi $zero, $zero, 0`
	side := `
	addi $a0, $sp, 8
	li $a1, 1
	li $v0, 5
	syscall
	sb $zero, 8($sp)`
	tail := `
	addi $a0, $sp, 4
	li $a1, 4
	li $v0, 5
	syscall` + printWord
	res, at, rec := forkTrial(t, forkProgram(main, side, tail), []byte("wxyz12"))
	if at != 0 {
		t.Fatalf("a trial ahead in its input converged at %d", at)
	}
	if string(rec.Result.Output) != "wxyz" || string(res.Output) != "xyz1" {
		t.Fatalf("fixture: outputs %q (golden) and %q (trial)", rec.Result.Output, res.Output)
	}
}

// arrayProgram stores 200 values through a dead value register, idles for
// a few checkpoints, then prints the sum of the stored values. A flip in
// the value leaves registers golden but one array word wrong in a page
// both runs wrote.
const arrayProgram = `
.text
.func __start
	addi $t9, $sp, -4096
	li $t0, 0
fill:
	addi $t4, $t0, 7
	sll $t6, $t0, 2
	add $t6, $t6, $t9
	sw $t4, 0($t6)
	li $t4, 0
	addi $t0, $t0, 1
	slti $at, $t0, 200
	bnez $at, fill
	li $t0, 0
idle:
	addi $t0, $t0, 1
	slti $at, $t0, 300
	bnez $at, idle
	li $t0, 0
	li $t1, 0
sum:
	sll $t6, $t0, 2
	add $t6, $t6, $t9
	lw $t4, 0($t6)
	add $t1, $t1, $t4
	addi $t0, $t0, 1
	slti $at, $t0, 200
	bnez $at, sum
	li $t4, 0
	sw $t1, 0($sp)
	move $a0, $sp
	li $a1, 4
	li $v0, 4
	syscall
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

func TestConvergeComparesWrittenPages(t *testing.T) {
	p, err := asm.Assemble(arrayProgram)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(p.Text))
	for i, in := range p.Text {
		if in.Op == isa.ADDI && in.Imm == 7 {
			mask[i] = true
		}
	}
	rec := recordConv(t, p, mask, sim.Config{}, 64)
	idx := 3
	plan := &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: rec.Snapshots()[idx].EligCount + 1, Bit: 20}}}
	res := rec.RunFrom(idx, plan, 0)
	if at := matchScratch(t, "stored flip", res, scratchOracle(p, sim.Config{}, plan, 0)); at != 0 {
		t.Fatalf("a trial with a wrong array word converged at %d", at)
	}
	if bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatal("fixture: the wrong array word did not reach the output")
	}
}

// TestConvergeFromRoot: a flip before the first checkpoint restores the
// root, the machine before its first instruction, so the trial still
// converges. Under a mask other than the recorded one it runs flat from
// scratch and never does.
func TestConvergeFromRoot(t *testing.T) {
	f := assembleConv(t)
	rec := recordConv(t, f.p, f.mask, sim.Config{}, 64)
	plan := &sim.FaultPlan{Eligible: f.mask, Injections: []sim.Injection{{At: 1, Bit: 6}}}
	if rec.SnapshotBefore(1) != -1 {
		t.Fatal("fixture: a checkpoint precedes the first eligible instruction")
	}
	at := matchScratch(t, "root", rec.RunFrom(-1, plan, 0), scratchOracle(f.p, sim.Config{}, plan, 0))
	if want := rec.Snapshots()[0].Instret; at != want {
		t.Fatalf("converged at %d, want the first checkpoint %d", at, want)
	}

	other := slices.Clone(f.mask)
	other[f.sum] = false
	plan = &sim.FaultPlan{Eligible: other, Injections: []sim.Injection{{At: 1, Bit: 6}}}
	if at := matchScratch(t, "other mask", rec.RunFrom(-1, plan, 0), scratchOracle(f.p, sim.Config{}, plan, 0)); at != 0 {
		t.Fatalf("a trial under another mask converged at %d", at)
	}
}

// TestRecoverReplayFromRoot: a flip detected before the first checkpoint
// replays from the root, and the replay converges at the first checkpoint
// instead of running the whole program again.
func TestRecoverReplayFromRoot(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 2, Bit: 5}}}
	detected := rec.RunFrom(-1, plan, 0)
	if detected.Outcome != sim.Detected || rec.SnapshotBefore(detected.EligibleExec+1) != -1 {
		t.Fatalf("fixture: outcome %s at eligible %d, want a detection before the first checkpoint", detected.Outcome, detected.EligibleExec)
	}
	res := rec.RunRecover(-1, plan, 0, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Recovered || res.ConvergedAt != rec.Snapshots()[0].Instret {
		t.Fatalf("outcome %s converged at %d, want recovered at the first checkpoint %d", res.Outcome, res.ConvergedAt, rec.Snapshots()[0].Instret)
	}
	if res.Instret != rec.Result.Instret || res.RecoverInstret != rec.Result.Instret {
		t.Fatalf("instret %d, replay work %d: want the logical %d for both", res.Instret, res.RecoverInstret, rec.Result.Instret)
	}
}

// deadForeverProgram writes $t5 once between two loops and never reads it;
// it is rewritten only after the last checkpoint, just before the exit
// (where liveness takes every register as live). A flip there is dead, yet
// the trial's registers differ from the golden pass's at every later
// checkpoint unless the flip is elided.
const deadForeverProgram = `
.text
.func __start
	li $t0, 0
	li $t1, 0
warm:
	add $t1, $t1, $t0
	addi $t0, $t0, 1
	slti $at, $t0, 100
	bnez $at, warm
	addi $t5, $t0, 9
	li $t0, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, 1
	slti $at, $t0, 300
	bnez $at, loop
	addi $sp, $sp, -4
	sw $t1, 0($sp)
	move $a0, $sp
	li $a1, 4
	li $v0, 4
	syscall
	li $t5, 0
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

// TestElideDeadFlipConverges: under a recording with the Classify benign
// mask, a flip into a dead register is elided, so the trial converges at
// its next checkpoint with Elided == Injected and otherwise equals the
// from-scratch run, which applies the flip. Without the mask the same
// trial never converges. A flip that must land after an elided one makes
// the trial run again with every flip applied.
func TestElideDeadFlipConverges(t *testing.T) {
	p, err := asm.Assemble(deadForeverProgram)
	if err != nil {
		t.Fatal(err)
	}
	dead, sum := -1, -1
	for i, in := range p.Text {
		switch {
		case in.Op == isa.ADDI && in.Imm == 9:
			dead = i
		case in.Op == isa.ADD && dead >= 0 && sum < 0:
			sum = i // the second loop's add, which feeds the output
		}
	}
	cls, err := analysis.Classify(p)
	if err != nil {
		t.Fatal(err)
	}
	if dead < 0 || sum < 0 || !cls.Benign[dead] || cls.Benign[sum] {
		t.Fatalf("fixture: dead=%d sum=%d benign %v", dead, sum, cls.Benign)
	}
	mask := make([]bool, len(p.Text))
	mask[dead], mask[sum] = true, true
	cfg := sim.Config{Plan: &sim.FaultPlan{Eligible: mask}}
	folded, err := sim.Record(p, cfg, sim.RecordOptions{Interval: 64, Benign: cls.Benign})
	if err != nil {
		t.Fatal(err)
	}
	plain := recordConv(t, p, mask, sim.Config{}, 64)

	// The dead addi is eligible-stream ordinal 1, executed after several
	// checkpoints.
	plan := &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: 1, Bit: 3}}}
	idx := folded.SnapshotBefore(1)
	if idx < 0 || idx+1 >= len(folded.Snapshots()) {
		t.Fatalf("fixture: restore index %d of %d checkpoints", idx, len(folded.Snapshots()))
	}
	want := scratchOracle(p, sim.Config{}, plan, 0)
	if at := matchScratch(t, "unfolded", plain.RunFrom(idx, plan, 0), want); at != 0 {
		t.Fatalf("a dead flip that is never rewritten converged at %d without the benign mask", at)
	}
	got := folded.RunFrom(idx, plan, 0)
	if got.Elided != 1 || got.Injected != 1 {
		t.Fatalf("elided %d of %d injected flips, want 1 of 1", got.Elided, got.Injected)
	}
	got.Elided = 0
	if at, next := matchScratch(t, "folded", got, want), folded.Snapshots()[idx+1].Instret; at != next {
		t.Fatalf("folded trial converged at %d, want the next checkpoint %d", at, next)
	}

	// A second flip on the live sum after the elided one.
	plan = &sim.FaultPlan{Eligible: mask, Injections: []sim.Injection{{At: 1, Bit: 3}, {At: 40, Bit: 2}}}
	got = folded.RunFrom(idx, plan, 0)
	if got.Elided != 0 || got.Injected != 2 {
		t.Fatalf("elided %d of %d flips after a live one followed, want 0 of 2", got.Elided, got.Injected)
	}
	matchScratch(t, "elided then live", got, scratchOracle(p, sim.Config{}, plan, 0))
}
