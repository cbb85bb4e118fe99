package sim

// The reference interpreter: the per-step decode-dispatch loop over raw
// isa.Instr that predates the predecoded engine. Production runs only the
// engine (engine.go); this loop is the oracle every engine differential
// compares against — TestEngineMatchesReference, FuzzEngineEquivalence,
// the app differentials in engine_apps_test.go and
// TestRecordSnapshotsMatchReference. It re-derives class, destination and
// eligibility from the instruction on every step and never elides a flip.

import (
	"time"

	"etap/internal/isa"
)

// referenceRun executes the program from scratch on the reference
// interpreter.
func referenceRun(p *isa.Program, cfg Config) Result {
	m, buf := newScratch(p, cfg.normalize())
	start := time.Now()
	m.run(p.Text)
	recordRunMetrics(simRunsScratch, m.instret, time.Since(start))
	res := m.result()
	buf.release()
	return res
}

// run retires text's instructions one decode-dispatch step at a time
// until the machine stops or its budget runs out; calling it again after
// raising cfg.MaxInstr continues the same run.
func (m *machine) run(text []isa.Instr) {
	for !m.done {
		if m.pc < 0 || m.pc >= len(text) {
			m.fault(TrapBadPC, uint32(m.pc))
			return
		}
		if m.instret >= m.cfg.MaxInstr {
			m.outcome = Timeout
			return
		}
		in := text[m.pc]
		m.instret++
		m.classCounts[in.Class()]++
		next := m.pc + 1
		r := &m.regs

		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])+int32(r[in.Rt])))
		case isa.SUB:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])-int32(r[in.Rt])))
		case isa.MUL:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])*int32(r[in.Rt])))
		case isa.DIV:
			if r[in.Rt] == 0 {
				m.fault(TrapDivZero, 0)
				return
			}
			m.setReg(in.Rd, uint32(sdiv(int32(r[in.Rs]), int32(r[in.Rt]))))
		case isa.REM:
			if r[in.Rt] == 0 {
				m.fault(TrapDivZero, 0)
				return
			}
			m.setReg(in.Rd, uint32(srem(int32(r[in.Rs]), int32(r[in.Rt]))))
		case isa.AND:
			m.setReg(in.Rd, r[in.Rs]&r[in.Rt])
		case isa.OR:
			m.setReg(in.Rd, r[in.Rs]|r[in.Rt])
		case isa.XOR:
			m.setReg(in.Rd, r[in.Rs]^r[in.Rt])
		case isa.NOR:
			m.setReg(in.Rd, ^(r[in.Rs] | r[in.Rt]))
		case isa.SLLV:
			m.setReg(in.Rd, r[in.Rs]<<(r[in.Rt]&31))
		case isa.SRLV:
			m.setReg(in.Rd, r[in.Rs]>>(r[in.Rt]&31))
		case isa.SRAV:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])>>(r[in.Rt]&31)))
		case isa.SLT:
			m.setReg(in.Rd, b2u(int32(r[in.Rs]) < int32(r[in.Rt])))
		case isa.SLTU:
			m.setReg(in.Rd, b2u(r[in.Rs] < r[in.Rt]))

		case isa.ADDI:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])+in.Imm))
		case isa.ANDI:
			m.setReg(in.Rd, r[in.Rs]&uint32(in.Imm))
		case isa.ORI:
			m.setReg(in.Rd, r[in.Rs]|uint32(in.Imm))
		case isa.XORI:
			m.setReg(in.Rd, r[in.Rs]^uint32(in.Imm))
		case isa.SLL:
			m.setReg(in.Rd, r[in.Rs]<<(uint32(in.Imm)&31))
		case isa.SRL:
			m.setReg(in.Rd, r[in.Rs]>>(uint32(in.Imm)&31))
		case isa.SRA:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])>>(uint32(in.Imm)&31)))
		case isa.SLTI:
			m.setReg(in.Rd, b2u(int32(r[in.Rs]) < in.Imm))
		case isa.LUI:
			m.setReg(in.Rd, uint32(in.Imm)<<16)

		case isa.ADDF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])+f32(r[in.Rt])))
		case isa.SUBF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])-f32(r[in.Rt])))
		case isa.MULF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])*f32(r[in.Rt])))
		case isa.DIVF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])/f32(r[in.Rt])))
		case isa.CVTIF:
			m.setReg(in.Rd, bits(float32(int32(r[in.Rs]))))
		case isa.CVTFI:
			m.setReg(in.Rd, uint32(f2i(f32(r[in.Rs]))))
		case isa.CEQF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) == f32(r[in.Rt])))
		case isa.CLTF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) < f32(r[in.Rt])))
		case isa.CLEF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) <= f32(r[in.Rt])))

		case isa.LW:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 4)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.LH:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 2)
			if !ok {
				return
			}
			m.setReg(in.Rd, uint32(int32(int16(v))))
		case isa.LHU:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 2)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.LB:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 1)
			if !ok {
				return
			}
			m.setReg(in.Rd, uint32(int32(int8(v))))
		case isa.LBU:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 1)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.SW:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 4, r[in.Rt]) {
				return
			}
		case isa.SH:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 2, r[in.Rt]) {
				return
			}
		case isa.SB:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 1, r[in.Rt]) {
				return
			}

		case isa.BEQ:
			if r[in.Rs] == r[in.Rt] {
				next = int(in.Imm)
			}
		case isa.BNE:
			if r[in.Rs] != r[in.Rt] {
				next = int(in.Imm)
			}
		case isa.BLEZ:
			if int32(r[in.Rs]) <= 0 {
				next = int(in.Imm)
			}
		case isa.BGTZ:
			if int32(r[in.Rs]) > 0 {
				next = int(in.Imm)
			}
		case isa.BLTZ:
			if int32(r[in.Rs]) < 0 {
				next = int(in.Imm)
			}
		case isa.BGEZ:
			if int32(r[in.Rs]) >= 0 {
				next = int(in.Imm)
			}
		case isa.J:
			next = int(in.Imm)
		case isa.JAL:
			m.setReg(isa.RegRA, isa.TextBase+uint32(m.pc+1))
			next = int(in.Imm)
		case isa.JR:
			next = codeIdx(r[in.Rs])
		case isa.JALR:
			m.setReg(in.Rd, isa.TextBase+uint32(m.pc+1))
			next = codeIdx(r[in.Rs])

		case isa.SYSCALL:
			if !m.syscall() {
				return
			}

		case isa.TRAPDET:
			m.outcome = Detected
			m.done = true
			return
		}

		// Fault accounting and injection happen after writeback so the
		// flipped bit lands in the committed result.
		if m.eligible != nil && m.pc < len(m.eligible) && m.eligible[m.pc] {
			m.eligCount++
			if m.injected < len(m.injections) && m.eligCount == m.injections[m.injected].At {
				bit := m.injections[m.injected].Bit & 31
				if d, ok := in.Dest(); ok && d != isa.RegZero {
					m.regs[d] ^= 1 << bit
				}
				if m.injected == 0 {
					m.firstInjInstret = m.instret
				}
				m.injected++
			}
		}

		m.pc = next
	}
}
