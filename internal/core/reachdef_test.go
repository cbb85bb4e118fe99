package core

import (
	"fmt"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/isa"
	"etap/internal/minic"
)

func TestReachingDefsStraightLine(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 1    # def0 of t0
	addi $t0, $t0, 2      # uses def0; def of t0
	add  $t1, $t0, $t0    # uses def1 twice
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	dus, err := ReachingDefs(p)
	if err != nil {
		t.Fatal(err)
	}
	du := dus[0]
	// Instruction 1 must see exactly def 0; instruction 2 must see the
	// def made at instruction 1.
	defsAtUse := func(instr int) map[int]bool {
		out := map[int]bool{}
		for _, id := range du.UseDefs[instr] {
			out[du.Defs[id].Instr] = true
		}
		return out
	}
	if d := defsAtUse(1); !d[0] || len(d) != 1 {
		t.Fatalf("instr 1 sees defs %v, want {0}", d)
	}
	if d := defsAtUse(2); !d[1] || d[0] {
		t.Fatalf("instr 2 sees defs %v, want {1}", d)
	}
}

func TestReachingDefsMergeAtJoin(t *testing.T) {
	src := `
.text
.func f tolerant
	beqz $a0, alt
	addi $t0, $zero, 1    # def A
	j join
alt:
	addi $t0, $zero, 2    # def B
join:
	add $t1, $t0, $zero   # both defs reach
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	dus, err := ReachingDefs(p)
	if err != nil {
		t.Fatal(err)
	}
	du := dus[0]
	joinUse := -1
	for idx := range du.UseDefs {
		if p.Text[idx].Op == isa.ADD {
			joinUse = idx
		}
	}
	if joinUse < 0 {
		t.Fatalf("join use not found")
	}
	sites := map[int]bool{}
	for _, id := range du.UseDefs[joinUse] {
		sites[du.Defs[id].Instr] = true
	}
	if len(sites) != 2 {
		t.Fatalf("join sees %d defs (%v), want 2", len(sites), sites)
	}
}

func TestReachingDefsLoop(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 0    # initial def
loop:
	addi $t0, $t0, 1      # loop def; use sees both defs
	slti $at, $t0, 10
	bnez $at, loop
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	dus, err := ReachingDefs(p)
	if err != nil {
		t.Fatal(err)
	}
	du := dus[0]
	sites := map[int]bool{}
	for _, id := range du.UseDefs[1] {
		sites[du.Defs[id].Instr] = true
	}
	if !sites[0] || !sites[1] {
		t.Fatalf("loop body use sees defs %v, want both initial and loop defs", sites)
	}
}

func TestCallClobbersCallerSaved(t *testing.T) {
	src := `
.text
.func g
	addi $v0, $zero, 7
	jr $ra
.endfunc
.func f tolerant
	addi $t0, $zero, 5    # def before the call
	jal g                 # clobbers t0
	add $t1, $t0, $zero   # must NOT see the pre-call def
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	dus, err := ReachingDefs(p)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.FuncByName("f")
	var du *DefUse
	for _, d := range dus {
		if d.Func.Name == "f" {
			du = d
		}
	}
	useInstr := f.Start + 2
	for _, id := range du.UseDefs[useInstr] {
		site := du.Defs[id]
		if site.Instr == f.Start && p.Text[site.Instr].Op == isa.ADDI {
			t.Fatalf("pre-call definition of $t0 survived the call")
		}
	}
}

// TestCrossValidateApps is the heavyweight consistency check: for every
// benchmark application and every policy, the independently computed
// def-use chains must agree that no tagged instruction feeds a
// control-consuming site.
func TestCrossValidateApps(t *testing.T) {
	for _, app := range all.Apps() {
		prog, err := minic.Build(app.Source())
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		for _, pol := range []Policy{PolicyControl, PolicyControlAddr, PolicyConservative} {
			rep, err := Analyze(prog, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), pol, err)
			}
			if err := CrossValidate(prog, rep); err != nil {
				t.Errorf("%s/%s: %v", app.Name(), pol, err)
			}
		}
	}
}

// TestCrossValidateFuzz extends the consistency check to random programs.
func TestCrossValidateFuzz(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 5
	}
	for seed := int64(500); seed < 500+int64(n); seed++ {
		prog, err := minic.Build(minic.GenProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pol := range []Policy{PolicyControl, PolicyControlAddr, PolicyConservative} {
			rep, err := Analyze(prog, pol)
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, pol, err)
			}
			if err := CrossValidate(prog, rep); err != nil {
				t.Errorf("seed %d/%s: %v", seed, pol, err)
			}
		}
	}
}

// TestCrossValidateCatchesBadTags plants a deliberately wrong tag and
// checks the validator rejects it, so the consistency tests above cannot
// pass vacuously.
func TestCrossValidateCatchesBadTags(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 5
	beqz $t0, out
	nop
out:
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	rep, err := Analyze(p, PolicyControl)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := p.FuncByName("f")
	if rep.Tagged[f.Start] {
		t.Fatalf("branch-feeding instruction tagged by the analysis itself")
	}
	rep.Tagged[f.Start] = true // sabotage
	if err := CrossValidate(p, rep); err == nil {
		t.Fatalf("validator accepted a tag on a branch-feeding instruction")
	}
}

// CrossValidate checks a Report against independently computed def-use
// chains: no tagged definition may be directly consumed by a
// control-consuming site under the report's policy. It returns a
// description of the first violation, or nil.
func CrossValidate(p *isa.Program, r *Report) error {
	dus, err := ReachingDefs(p)
	if err != nil {
		return err
	}
	entryToFunc := make(map[int]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		entryToFunc[f.Start] = fi
	}
	for _, du := range dus {
		for id, useSites := range du.DefUses {
			def := du.Defs[id]
			if !r.Tagged[def.Instr] {
				continue
			}
			for _, u := range useSites {
				if why := controlConsumer(p, r, entryToFunc, u, def.Reg); why != "" {
					return fmt.Errorf("core: tagged instruction %d (%s) reaches %s at instruction %d (%s)",
						def.Instr, isa.Disasm(p.Text[def.Instr]), why, u, isa.Disasm(p.Text[u]))
				}
			}
		}
	}
	return nil
}

// controlConsumer reports why instruction u consuming register reg is a
// control-consuming site under the report's policy ("" if it is not).
func controlConsumer(p *isa.Program, r *Report, entryToFunc map[int]int, u int, reg isa.Reg) string {
	in := p.Text[u]
	switch in.Class() {
	case isa.ClassControl:
		if in.Op == isa.JAL {
			callee, ok := entryToFunc[int(in.Imm)]
			if ok && r.Summaries[callee].ArgsControl.Has(reg) {
				return "a control-live callee argument"
			}
			return ""
		}
		if in.Op == isa.JALR {
			if reg == in.Rs {
				return "an indirect call target"
			}
			return "a control-live callee argument (unknown callee)"
		}
		return "a control transfer"
	case isa.ClassSys:
		return "a syscall operand"
	case isa.ClassArith:
		if (in.Op == isa.DIV || in.Op == isa.REM) && in.Rt == reg {
			return "a faultable divisor"
		}
		if r.ControlSlice[u] {
			return "a control-influencing computation"
		}
	case isa.ClassLoad:
		if in.Rs == reg {
			if r.Policy >= PolicyControlAddr {
				return "a load address under an address-protecting policy"
			}
			if r.ControlSlice[u] {
				return "the address of a control-bound load"
			}
		}
	case isa.ClassStore:
		if in.Rs == reg && r.Policy >= PolicyControlAddr {
			return "a store address under an address-protecting policy"
		}
		if in.Rt == reg && r.Policy >= PolicyConservative {
			return "a stored value under the conservative policy"
		}
	}
	return ""
}
