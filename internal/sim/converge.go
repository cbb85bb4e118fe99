// Convergence early-exit: most injected faults die out — the flipped value
// is overwritten or never read — and the trial falls back into the golden
// run's exact state. From then on determinism makes the rest of the trial
// the golden tail, so simulating it again only re-derives what the
// recording already knows. A restored trial therefore runs in segments that
// end at each later checkpoint's Instret; once every injection has fired,
// the machine is compared with the checkpoint at each segment end, and on
// a match the Result is synthesized from the recorded golden Result. A
// trial whose first injection comes before the first checkpoint restores
// the root, the machine before its first instruction, so it converges
// like any other instead of running to its end. A trial whose every flip
// was elided (RecordOptions.Benign) never left the golden path, so it
// converges at the next checkpoint; one with nothing to inject takes the
// golden tail at its restore checkpoint without simulating.
//
// The segmentation only moves the engine's budget: runEngine stops
// cleanly on a budget anywhere, including between the two halves of a
// fused pair, and resuming it continues the same instruction stream, so a
// trial that never converges retires exactly what one uninterrupted run
// would.
package sim

import (
	"bytes"

	"etap/internal/isa"
)

// zeroPage is the content of a page that was never written.
var zeroPage [pageSize]byte

// samePage compares two page images, nil standing for an all-zero page.
// Shared (pointer-equal) pages are the fast path.
func samePage(a, b *[pageSize]byte) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return *b == zeroPage
	case b == nil:
		return *a == zeroPage
	}
	return *a == *b
}

// tailFits reports whether a trial under budget may take the golden tail:
// only when the golden run ended on its own within that budget. Otherwise
// the trial's tail would time out where the golden one did not, and the
// recording holds no state to synthesize that.
func (r *Recording) tailFits(budget uint64) bool {
	return r.Result.Outcome != Timeout && r.Result.Instret <= budget
}

// runConverging runs the Runner's machine, restored from checkpoint idx
// (-1: the root), to the end of the trial. It stops at every later
// checkpoint's Instret and returns the first checkpoint whose golden state
// the machine matches with no injection pending, or nil when the trial ran
// to its own end or stopped to be run again with every flip applied
// (m.reapply).
func (rn *Runner) runConverging(idx int, code []dinstr) *Snapshot {
	m := &rn.m
	r := rn.rec
	budget := m.cfg.MaxInstr
	if !r.tailFits(budget) {
		m.runEngine(code)
		return nil
	}
	for j := idx + 1; ; j++ {
		stop := budget
		if j < len(r.snaps) && r.snaps[j].Instret < budget {
			stop = r.snaps[j].Instret
		}
		m.cfg.MaxInstr = stop
		m.runEngine(code)
		// A segment that ended on the checkpoint's Instret left Timeout
		// in m.outcome; every later exit path overwrites it.
		if m.done || m.reapply || stop == budget {
			return nil
		}
		if m.injected == len(m.injections) && rn.converged(idx, j) {
			return r.snaps[j]
		}
	}
}

// converged reports whether the machine, resumed from checkpoint i and
// stopped at checkpoint j's Instret, holds exactly the golden state of
// checkpoint j: pc, registers, input cursor, output, and every memory page
// that either side may have changed since checkpoint i. Every other page
// is still shared with checkpoint i and unchanged in the golden pass.
func (rn *Runner) converged(i, j int) bool {
	m := &rn.m
	r := rn.rec
	si, sj := r.root, r.snaps[j]
	if i >= 0 {
		si = r.snaps[i]
	}
	if m.pc != sj.PC || m.inPos != sj.inPos ||
		[isa.NumRegs]uint32(m.regs[:isa.NumRegs]) != sj.regs {
		return false
	}
	// The output up to checkpoint i is the golden prefix the trial
	// resumed with; only what it appended since can differ, in length or
	// in bytes.
	if !bytes.Equal(m.out[si.outLen:], r.Result.Output[si.outLen:sj.outLen]) {
		return false
	}
	// Sparse pages: the same key set (MaxPages counts keys, so an extra
	// page changes future behaviour even when it holds zeros) with the
	// same contents.
	if len(m.pages)+len(m.roSparse) != len(sj.sparse) {
		return false
	}
	for _, pn := range sj.sparse {
		pg, ok := m.pages[pn]
		if !ok {
			if pg, ok = m.roSparse[pn]; !ok {
				return false
			}
		}
		if !samePage(pg, sj.pages[pn]) {
			return false
		}
	}
	// Fast pages the golden pass wrote since checkpoint i and the trial
	// did not: the trial still holds checkpoint i's image of them.
	for k := i + 1; k <= j; k++ {
		for _, pn := range r.snaps[k].dirty {
			if m.wrTab[pn] == nil && !samePage(m.pageTab[pn], sj.pages[pn]) {
				return false
			}
		}
	}
	// Fast pages the trial wrote.
	for _, pn := range m.written {
		gp, ok := sj.pages[pn]
		if !ok {
			gp = r.base[pn]
		}
		if !samePage(m.wrTab[pn], gp) {
			return false
		}
	}
	return true
}

// goldenTail builds the Result of a trial that converged at checkpoint sj.
// Everything the tail decides — how the run ends and what it wrote — is
// the golden Result's; the counters are the trial's own at the checkpoint
// plus what the golden pass accumulated after it; the injection fields
// describe the trial.
func (rn *Runner) goldenTail(sj *Snapshot) Result {
	m := &rn.m
	g := &rn.rec.Result
	res := *g
	res.EligibleExec = m.eligCount + (g.EligibleExec - sj.EligCount)
	for c := range res.ClassCounts {
		res.ClassCounts[c] = m.classCounts[c] + (g.ClassCounts[c] - sj.classCounts[c])
	}
	res.Injected = m.injected
	res.Elided = m.elided
	res.FirstInjectInstret = m.firstInjInstret
	res.Output = g.Output[:len(g.Output):len(g.Output)]
	res.ConvergedAt = sj.Instret
	simTrialsConverged.Inc()
	simInstrSkipped.Add(float64(g.Instret - sj.Instret))
	return res
}
