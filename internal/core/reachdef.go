package core

import "etap/internal/isa"

// This file implements classic reaching definitions and def-use chains —
// the "technique ... used in contemporary compilers" the paper's Section 3
// builds on — as an *independent* computation of the def-use structure.
// The package's tests cross-validate the CVar analysis with it: a tagged
// (low-reliability) definition must never be directly consumed by a
// control-consuming site. Because the CVar transfer function marks every
// intermediate definition on a path to control as control-influencing, the
// one-step property over all instructions is equivalent to full-slice
// disjointness, but it is computed here by a structurally different
// algorithm (forward bitvector dataflow instead of the backward set walk),
// which is what makes the check meaningful.

// DefID identifies one register definition site.
type DefID int32

// DefSite describes a definition: instruction index and defined register.
type DefSite struct {
	Instr int
	Reg   isa.Reg
}

// DefUse holds reaching-definition results for one function.
type DefUse struct {
	Func isa.FuncInfo
	// Defs lists every definition site in the function, indexed by DefID.
	Defs []DefSite
	// UseDefs maps (instruction index − Func.Start) to, per use operand,
	// the definitions reaching it. Definitions made outside the function
	// (arguments, callee results) have no DefID and are simply absent.
	UseDefs map[int][]DefID
	// DefUses is the inverse: for each DefID, the instruction indices that
	// consume it.
	DefUses [][]int

	defsByInstr map[int][]DefID
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i DefID)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i DefID) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) orInto(other bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | other[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(other bitset) {
	copy(b, other)
}

// ReachingDefs computes per-function def-use chains for the whole program.
func ReachingDefs(p *isa.Program) ([]*DefUse, error) {
	cfgs, err := BuildCFG(p)
	if err != nil {
		return nil, err
	}
	out := make([]*DefUse, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = reachFunc(p, cfg)
	}
	return out, nil
}

func reachFunc(p *isa.Program, cfg *FuncCFG) *DefUse {
	du := &DefUse{Func: cfg.Func, UseDefs: make(map[int][]DefID)}

	// Enumerate definition sites. Calls clobber the caller-saved set; model
	// each clobber as a definition so stale defs do not flow past calls.
	defsOfReg := make([][]DefID, isa.NumRegs)
	addDef := func(idx int, r isa.Reg) DefID {
		id := DefID(len(du.Defs))
		du.Defs = append(du.Defs, DefSite{Instr: idx, Reg: r})
		defsOfReg[r] = append(defsOfReg[r], id)
		return id
	}
	for idx := cfg.Func.Start; idx < cfg.Func.End; idx++ {
		in := p.Text[idx]
		if d, ok := in.Dest(); ok && d != isa.RegZero {
			addDef(idx, d)
		}
		if in.Op == isa.JAL || in.Op == isa.JALR {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if callerSaved.Has(r) {
					if d, ok := in.Dest(); ok && d == r {
						continue // already added above
					}
					addDef(idx, r)
				}
			}
		}
	}
	nd := len(du.Defs)
	du.DefUses = make([][]int, nd)

	// GEN/KILL per block.
	nb := len(cfg.Blocks)
	gen := make([]bitset, nb)
	kill := make([]bitset, nb)
	for b, blk := range cfg.Blocks {
		gen[b] = newBitset(nd)
		kill[b] = newBitset(nd)
		for idx := blk.Start; idx < blk.End; idx++ {
			for _, id := range defsAt(du, idx) {
				r := du.Defs[id].Reg
				for _, other := range defsOfReg[r] {
					if du.Defs[other].Instr != idx {
						kill[b].set(other)
					}
				}
				gen[b].set(id)
			}
		}
		// gen must exclude killed-then-redefined handled by order below; a
		// simple forward pass fixes intra-block precision when we resolve
		// uses, so block-level gen/kill only need the last defs. Recompute
		// gen precisely: last definition of each register wins.
		lastDef := map[isa.Reg]DefID{}
		for idx := blk.Start; idx < blk.End; idx++ {
			for _, id := range defsAt(du, idx) {
				lastDef[du.Defs[id].Reg] = id
			}
		}
		gen[b] = newBitset(nd)
		for _, id := range lastDef {
			gen[b].set(id)
		}
	}

	// Forward fixpoint: in[b] = ∪ out[pred]; out[b] = gen ∪ (in − kill).
	ins := make([]bitset, nb)
	outs := make([]bitset, nb)
	for b := 0; b < nb; b++ {
		ins[b] = newBitset(nd)
		outs[b] = newBitset(nd)
	}
	preds := make([][]int, nb)
	for b, blk := range cfg.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < nb; b++ {
			in := newBitset(nd)
			for _, pb := range preds[b] {
				in.orInto(outs[pb])
			}
			ins[b].copyFrom(in)
			out := newBitset(nd)
			out.copyFrom(in)
			for i := range out {
				out[i] &^= kill[b][i]
				out[i] |= gen[b][i]
			}
			prev := outs[b]
			for i := range out {
				if out[i] != prev[i] {
					changed = true
				}
			}
			outs[b].copyFrom(out)
		}
	}

	// Resolve uses with intra-block precision: walk each block forward
	// tracking the current definition of each register.
	var usesBuf [3]isa.Reg
	for b, blk := range cfg.Blocks {
		cur := make([]DefID, isa.NumRegs)
		for i := range cur {
			cur[i] = -1
		}
		live := ins[b]
		for idx := blk.Start; idx < blk.End; idx++ {
			in := p.Text[idx]
			uses := in.Uses(usesBuf[:0])
			if in.Op == isa.JAL || in.Op == isa.JALR {
				// Virtual uses: calls consume the argument registers; the
				// cross-validation decides via callee summaries whether a
				// given argument is control-live.
				uses = append(uses, isa.RegA0, isa.RegA1, isa.RegA2, isa.RegA3)
			}
			for _, r := range uses {
				if r == isa.RegZero {
					continue
				}
				if cur[r] >= 0 {
					du.record(idx, cur[r])
					continue
				}
				for _, id := range defsOfReg[r] {
					if live.has(id) {
						du.record(idx, id)
					}
				}
			}
			for _, id := range defsAt(du, idx) {
				cur[du.Defs[id].Reg] = id
			}
		}
	}
	return du
}

// defsAt returns the DefIDs whose site is instruction idx. Linear scan per
// block construction would be wasteful; build lazily with a map.
func defsAt(du *DefUse, idx int) []DefID {
	if du.defsByInstr == nil {
		du.defsByInstr = make(map[int][]DefID)
		for id, d := range du.Defs {
			du.defsByInstr[d.Instr] = append(du.defsByInstr[d.Instr], DefID(id))
		}
	}
	return du.defsByInstr[idx]
}

func (du *DefUse) record(useInstr int, id DefID) {
	du.UseDefs[useInstr] = append(du.UseDefs[useInstr], id)
	du.DefUses[id] = append(du.DefUses[id], useInstr)
}
