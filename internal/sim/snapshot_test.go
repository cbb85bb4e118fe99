package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"etap/internal/asm"
	"etap/internal/isa"
	"etap/internal/sim"
)

// snapProgram exercises registers, the stack, sparse pages and output: it
// sums i and i*i over a loop, spills the accumulator to the stack and to a
// far sparse address each iteration, and writes the running value out.
const snapProgram = `
.text
.func __start
	li $t5, 0
	li $t6, 0
	lui $t8, 0x2000
loop:
	add $t6, $t6, $t5
	mul $t7, $t5, $t5
	add $t6, $t6, $t7
	addi $sp, $sp, -4
	sw $t6, 0($sp)
	sw $t6, 0($t8)
	addi $t8, $t8, 4
	addi $t5, $t5, 1
	slti $at, $t5, 500
	bnez $at, loop
	addi $sp, $sp, 2000
	move $a0, $sp
	sw $t6, 0($a0)
	li $a1, 4
	li $v0, 4
	syscall
	move $a0, $t6
	li $v0, 1
	syscall
.endfunc
`

func record(t *testing.T, opt sim.RecordOptions) (*isa.Program, *sim.Recording) {
	t.Helper()
	p, err := asm.Assemble(snapProgram)
	if err != nil {
		t.Fatal(err)
	}
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	rec, err := sim.Record(p, sim.Config{Plan: &sim.FaultPlan{Eligible: elig}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Outcome != sim.OK {
		t.Fatalf("golden outcome %s", rec.Result.Outcome)
	}
	return p, rec
}

func TestRecordCapturesSnapshots(t *testing.T) {
	_, rec := record(t, sim.RecordOptions{Interval: 512})
	snaps := rec.Snapshots()
	if len(snaps) == 0 {
		t.Fatalf("no snapshots captured for a %d-instruction run", rec.Result.Instret)
	}
	var prev uint64
	for i, s := range snaps {
		if s.Instret <= prev && i > 0 {
			t.Fatalf("snapshot %d not after its predecessor: %d <= %d", i, s.Instret, prev)
		}
		if s.EligCount > s.Instret {
			t.Fatalf("snapshot %d eligible count %d exceeds instret %d", i, s.EligCount, s.Instret)
		}
		prev = s.Instret
	}
}

func TestResumeMatchesScratchEverywhere(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 512})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	// One trial per snapshot, injecting just after that snapshot's
	// eligible-stream position, plus a no-injection trial from the last.
	for idx, s := range rec.Snapshots() {
		at := s.EligCount + 1
		plan := &sim.FaultPlan{Eligible: elig, Injections: []sim.Injection{{At: at, Bit: uint8(idx % 32)}}}
		scratch := rec.RunFrom(-1, plan, 0)
		resumed := rec.RunFrom(idx, plan, 0)
		if !resultsEqual(scratch, resumed) {
			t.Fatalf("snapshot %d (instret %d): resumed result differs\nscratch: %+v\nresumed: %+v",
				idx, s.Instret, headline(scratch), headline(resumed))
		}
		if scratch.Injected != 1 {
			t.Fatalf("snapshot %d: injection at %d never fired", idx, at)
		}
	}
}

func TestResumeCleanReproducesGolden(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 512})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	last := len(rec.Snapshots()) - 1
	res := rec.RunFrom(last, &sim.FaultPlan{Eligible: elig}, 0)
	if !resultsEqual(res, rec.Result) {
		t.Fatalf("clean resume differs from golden run:\ngolden:  %+v\nresumed: %+v",
			headline(rec.Result), headline(res))
	}
	// A plan-less replay counts no eligible executions but otherwise
	// runs the golden tail.
	res = rec.RunFrom(last, nil, 0)
	if res.Outcome != rec.Result.Outcome || res.Instret != rec.Result.Instret || !bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatalf("plan-less resume differs from golden run:\ngolden:  %+v\nresumed: %+v",
			headline(rec.Result), headline(res))
	}
}

func TestResumedTrialsAreIsolated(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 512})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	snaps := rec.Snapshots()
	idx := len(snaps) / 2
	at := snaps[idx].EligCount + 1
	planA := &sim.FaultPlan{Eligible: elig, Injections: []sim.Injection{{At: at, Bit: 3}}}
	planB := &sim.FaultPlan{Eligible: elig, Injections: []sim.Injection{{At: at, Bit: 17}}}
	a1 := rec.RunFrom(idx, planA, 0)
	// Interleave a different trial off the same snapshot; if COW leaked,
	// the repeat of planA would observe planB's writes.
	rec.RunFrom(idx, planB, 0)
	a2 := rec.RunFrom(idx, planA, 0)
	if !resultsEqual(a1, a2) {
		t.Fatalf("trials sharing a snapshot interfered:\nfirst:  %+v\nsecond: %+v", headline(a1), headline(a2))
	}
}

func TestSnapshotBefore(t *testing.T) {
	_, rec := record(t, sim.RecordOptions{Interval: 512})
	snaps := rec.Snapshots()
	if got := rec.SnapshotBefore(1); got != -1 {
		t.Fatalf("injection at ordinal 1 must run from scratch, got snapshot %d", got)
	}
	for idx, s := range snaps {
		got := rec.SnapshotBefore(s.EligCount + 1)
		if got != idx {
			t.Fatalf("SnapshotBefore(%d) = %d, want %d", s.EligCount+1, got, idx)
		}
		if s.EligCount > 0 {
			if got := rec.SnapshotBefore(s.EligCount); got >= idx {
				t.Fatalf("SnapshotBefore(%d) = %d includes a too-late snapshot %d", s.EligCount, got, idx)
			}
		}
	}
}

// TestSnapshotBeforeBoundary pins both sides of the "strictly before"
// boundary: for an injection at ordinal a, a checkpoint taken at exactly
// EligCount == a must NOT be chosen — a machine resumed there has already
// consumed ordinal a's eligible slot, so the flip would never fire — while
// SnapshotBefore(a+1) may return it. The functional half demonstrates the
// boundary is load-bearing: resuming from the too-late checkpoint silently
// drops the injection.
func TestSnapshotBeforeBoundary(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 512})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	snaps := rec.Snapshots()
	for idx, s := range snaps {
		if s.EligCount == 0 {
			continue
		}
		// Table half: the boundary ordinal itself must resolve to an
		// earlier checkpoint; one past it must resolve to exactly idx.
		if got := rec.SnapshotBefore(s.EligCount); got != idx-1 {
			t.Fatalf("SnapshotBefore(%d) = %d, want %d (checkpoint %d sits exactly at the ordinal)",
				s.EligCount, got, idx-1, idx)
		}
		if got := rec.SnapshotBefore(s.EligCount + 1); got != idx {
			t.Fatalf("SnapshotBefore(%d) = %d, want %d", s.EligCount+1, got, idx)
		}
	}
	// Functional half, on one mid-run checkpoint: an injection at exactly
	// the checkpoint's eligible count fires when resumed from
	// SnapshotBefore(at) and is silently lost when resumed from the
	// checkpoint at the boundary.
	idx := len(snaps) / 2
	at := snaps[idx].EligCount
	if at == 0 || idx == 0 {
		t.Fatalf("fixture too small: snapshot %d has eligible count %d", idx, at)
	}
	plan := &sim.FaultPlan{Eligible: elig, Injections: []sim.Injection{{At: at, Bit: 7}}}
	good := rec.RunFrom(rec.SnapshotBefore(at), plan, 0)
	if good.Injected != 1 {
		t.Fatalf("injection at %d resumed from SnapshotBefore: fired %d times, want 1", at, good.Injected)
	}
	if !resultsEqual(good, rec.RunFrom(-1, plan, 0)) {
		t.Fatal("boundary-correct resume differs from scratch")
	}
	late := rec.RunFrom(idx, plan, 0)
	if late.Injected != 0 {
		t.Fatalf("checkpoint at the injection ordinal still fired %d flips; boundary semantics changed", late.Injected)
	}
}

func TestRecordPrunesToBound(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 64, MaxSnapshots: 4})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	if n := len(rec.Snapshots()); n >= 8 {
		t.Fatalf("pruning kept %d snapshots with MaxSnapshots=4", n)
	}
	// Pruned recordings must still resume exactly.
	snaps := rec.Snapshots()
	last := len(snaps) - 1
	if last < 0 {
		t.Fatal("no snapshots survived pruning")
	}
	res := rec.RunFrom(last, &sim.FaultPlan{Eligible: elig}, 0)
	if !resultsEqual(res, rec.Result) {
		t.Fatalf("pruned resume differs from golden run")
	}
}

// TestThinnedRecordingRestoresEverywhere pins snapshot thinning: after
// maxSnaps compaction has run (possibly several times), the surviving
// checkpoints must keep a uniform cadence — recomputing `next` from the
// last kept snapshot must not let the post-thin interval drift — and every
// surviving checkpoint must still restore bit-identically.
func TestThinnedRecordingRestoresEverywhere(t *testing.T) {
	p, rec := record(t, sim.RecordOptions{Interval: 64, MaxSnapshots: 4})
	elig := make([]bool, len(p.Text))
	for i := range elig {
		elig[i] = true
	}
	snaps := rec.Snapshots()
	if len(snaps) < 3 {
		t.Fatalf("fixture too small: %d snapshots survived", len(snaps))
	}
	if len(snaps) >= 8 {
		t.Fatalf("thinning kept %d snapshots with MaxSnapshots=4", len(snaps))
	}
	// The run is long enough to force thinning at least once, so the
	// surviving spacing must be a power-of-two multiple of the initial
	// interval and identical between every adjacent pair.
	delta := snaps[1].Instret - snaps[0].Instret
	if delta <= 64 || delta%64 != 0 {
		t.Fatalf("post-thin interval %d is not a doubled multiple of the initial 64", delta)
	}
	for i := 1; i < len(snaps); i++ {
		if d := snaps[i].Instret - snaps[i-1].Instret; d != delta {
			t.Fatalf("snapshot cadence drifts after thinning: delta[%d]=%d, delta[1]=%d", i, d, delta)
		}
	}
	if snaps[0].Instret != delta {
		t.Fatalf("first surviving snapshot at instret %d, want one full interval %d", snaps[0].Instret, delta)
	}
	// Restore fidelity at every surviving ordinal, with an injection just
	// past each checkpoint so the eligible-stream position matters too.
	for idx, s := range snaps {
		plan := &sim.FaultPlan{Eligible: elig, Injections: []sim.Injection{{At: s.EligCount + 1, Bit: uint8(idx % 32)}}}
		scratch := rec.RunFrom(-1, plan, 0)
		resumed := rec.RunFrom(idx, plan, 0)
		if !resultsEqual(scratch, resumed) {
			t.Fatalf("thinned snapshot %d (instret %d) restores differently\nscratch: %+v\nresumed: %+v",
				idx, s.Instret, headline(scratch), headline(resumed))
		}
		if resumed.Injected != 1 {
			t.Fatalf("thinned snapshot %d: injection at %d never fired", idx, s.EligCount+1)
		}
	}
}

func TestRecordRejectsBadConfig(t *testing.T) {
	p, err := asm.Assemble(snapProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Record(p, sim.Config{MemSize: 12345}, sim.RecordOptions{}); err == nil {
		t.Fatal("unaligned MemSize accepted")
	}
	bad := sim.Config{Plan: &sim.FaultPlan{Injections: []sim.Injection{{At: 1}}}}
	if _, err := sim.Record(p, bad, sim.RecordOptions{}); err == nil {
		t.Fatal("golden pass with injections accepted")
	}
}

func resultsEqual(a, b sim.Result) bool {
	return a.Outcome == b.Outcome &&
		a.Trap == b.Trap &&
		a.ExitCode == b.ExitCode &&
		a.Instret == b.Instret &&
		a.EligibleExec == b.EligibleExec &&
		a.Injected == b.Injected &&
		bytes.Equal(a.Output, b.Output) &&
		reflect.DeepEqual(a.ClassCounts, b.ClassCounts)
}

func headline(r sim.Result) string {
	return r.Outcome.String() + "/" + r.Trap.String()
}
