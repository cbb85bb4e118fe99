package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/core"
	"etap/internal/isa"
	"etap/internal/minic"
)

// recordProgram touches every piece of state a checkpoint holds: each
// iteration reads one input byte, forms a constant with a fused lui/ori
// pair, stores it with a 64-byte stride (a new fast page every 64
// iterations), and every 32nd iteration also stores into the sparse region
// and echoes the byte to the output.
const recordProgram = `
.text
.func __start
	li $s0, 0
	li $s1, 0x2000
loop:
	li $a0, 0x1800
	li $a1, 1
	li $v0, 5
	syscall
	lui $t2, 0x1234
	ori $t2, $t2, 0x5678
	sll $t3, $s0, 6
	add $t4, $s1, $t3
	sw $t2, 0($t4)
	andi $t5, $s0, 31
	bne $t5, $zero, skip
	li $t6, 0x00900000
	add $t6, $t6, $t3
	sw $s0, 0($t6)
	li $a0, 0x1800
	li $a1, 1
	li $v0, 4
	syscall
skip:
	addi $s0, $s0, 1
	slti $at, $s0, 300
	bne $at, $zero, loop
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`

// TestRecordSnapshotsMatchReference: the golden pass runs on the engine in
// segments, so every checkpoint it captures must be the reference
// interpreter's machine stopped at the same Instret — pc, registers, class
// counts, eligible count, input cursor, output, and every page — and its
// page map and dirty/sparse lists must hold exactly the pages the program
// wrote (since the previous checkpoint, for dirty).
func TestRecordSnapshotsMatchReference(t *testing.T) {
	p := mustAssemble(t, recordProgram)
	mask := make([]bool, len(p.Text))
	for i, in := range p.Text {
		mask[i] = in.IsInjectable() && in.Op != isa.LUI // lui stays fusable
	}
	cfg := Config{Input: bytes.Repeat([]byte("etap"), 50), Plan: &FaultPlan{Eligible: mask}}

	app, _ := all.ByName("adpcm")
	ap, err := minic.Build(app.Source())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		p       *isa.Program
		cfg     Config
		opt     RecordOptions
		midPair bool // a checkpoint must fall between lui and ori
	}{
		{"every 7, thinned", p, cfg, RecordOptions{Interval: 7}, true},
		{"every 16, 4 kept", p, cfg, RecordOptions{Interval: 16, MaxSnapshots: 4}, false},
		{"every 64", p, cfg, RecordOptions{Interval: 64}, false},
		{"adpcm", ap, Config{Input: app.Input(), Plan: &FaultPlan{Eligible: core.EligibleAll(ap)}}, RecordOptions{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, err := Record(c.p, c.cfg, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceRun(c.p, c.cfg); !reflect.DeepEqual(rec.Result, want) {
				t.Fatalf("golden Result differs from the reference:\nrecorded:  %+v\nreference: %+v", rec.Result, want)
			}
			if len(rec.snaps) < 3 {
				t.Fatalf("fixture: only %d checkpoints", len(rec.snaps))
			}
			// The reference machine runs from scratch and stops at every
			// checkpoint. Its dirty bitmap starts clear, so it marks
			// exactly the fast pages the program stores to; the buffer is
			// not returned to the pool, whose reset relies on the bitmap.
			m, _ := newScratch(c.p, c.cfg.normalize())
			clear(m.dirty)
			fastPages := uint32(len(rec.base))
			cum := map[uint32]bool{}
			midPair := false
			interval := c.opt.withDefaults().Interval
			for k, s := range rec.snaps {
				if s.Instret%interval != 0 {
					t.Fatalf("checkpoint %d at %d, off the %d-instruction grid", k, s.Instret, interval)
				}
				m.cfg.MaxInstr = s.Instret
				m.run(c.p.Text)
				if m.done || m.instret != s.Instret {
					t.Fatalf("checkpoint %d: reference stopped at %d (done %v), want %d", k, m.instret, m.done, s.Instret)
				}
				if s.PC != m.pc || s.regs != [isa.NumRegs]uint32(m.regs[:isa.NumRegs]) ||
					s.classCounts != m.classCounts || s.EligCount != m.eligCount || s.inPos != m.inPos {
					t.Fatalf("checkpoint %d at %d: machine state differs from the reference", k, s.Instret)
				}
				if s.outLen != len(m.out) || !bytes.Equal(s.out, m.out) {
					t.Fatalf("checkpoint %d: output prefix %q, reference %q", k, s.out, m.out)
				}

				var written []uint32
				for w, word := range m.dirty {
					for b := 0; b < 64; b++ {
						if word>>b&1 == 1 {
							pn := uint32(w<<6 + b)
							written = append(written, pn)
							cum[pn] = true
						}
					}
				}
				clear(m.dirty)
				if k == 0 {
					written = sortedKeys(cum)
				}
				if !slices.Equal(s.dirty, written) {
					t.Fatalf("checkpoint %d: dirty list %v, pages written since the previous one %v", k, s.dirty, written)
				}
				var fast, sparse []uint32
				for pn := range s.pages {
					if pn < fastPages {
						fast = append(fast, pn)
					} else {
						sparse = append(sparse, pn)
					}
				}
				slices.Sort(fast)
				slices.Sort(sparse)
				if !slices.Equal(fast, sortedKeys(cum)) {
					t.Fatalf("checkpoint %d: fast pages %v, written %v", k, fast, sortedKeys(cum))
				}
				var refSparse []uint32
				for pn := range m.pages {
					refSparse = append(refSparse, pn)
				}
				slices.Sort(refSparse)
				if !slices.Equal(sparse, refSparse) || !slices.Equal(s.sparse, refSparse) {
					t.Fatalf("checkpoint %d: sparse pages %v (list %v), reference %v", k, sparse, s.sparse, refSparse)
				}
				for _, pn := range refSparse {
					if *s.pages[pn] != *m.pages[pn] {
						t.Fatalf("checkpoint %d: sparse page %#x differs", k, pn)
					}
				}
				// Every other fast page is zero on both sides.
				for pn := uint32(0); pn < fastPages; pn++ {
					got, ok := s.pages[pn]
					if !ok {
						got = rec.base[pn]
					}
					if got == nil && !cum[pn] {
						continue
					}
					if got == nil {
						got = &zeroPage
					}
					if !bytes.Equal(got[:], m.mem[pn<<pageShift:(pn+1)<<pageShift]) {
						t.Fatalf("checkpoint %d: fast page %#x differs", k, pn)
					}
				}
				if s.PC > 0 && rec.code[s.PC-1].kind == kLuiOri {
					midPair = true
				}
			}
			if last := rec.snaps[len(rec.snaps)-1]; c.p == p && (last.inPos == 0 || last.outLen == 0 || len(last.sparse) == 0) {
				t.Fatalf("fixture: last checkpoint read %d bytes, wrote %d, holds %d sparse pages", last.inPos, last.outLen, len(last.sparse))
			}
			t.Logf("%d checkpoints over %d instructions", len(rec.snaps), rec.Result.Instret)
			if c.midPair && !midPair {
				t.Fatal("fixture: no checkpoint fell inside a fused lui/ori pair")
			}
			if c.opt.MaxSnapshots > 0 && len(rec.snaps) >= 2*c.opt.MaxSnapshots {
				t.Fatalf("%d checkpoints kept, bound %d", len(rec.snaps), c.opt.MaxSnapshots)
			}
		})
	}
}

func sortedKeys(set map[uint32]bool) []uint32 {
	keys := make([]uint32, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestRecordReturnsZeroedBuffer: the golden pass clears the flat machine's
// dirty bitmap at every checkpoint, so Record must hand every page it
// wrote — the data segment copied in at setup included — back to the
// bitmap before the pool resets the buffer by it.
func TestRecordReturnsZeroedBuffer(t *testing.T) {
	p := mustAssemble(t, `
.data
msg: .asciiz "the data segment is copied in, never stored to"
.text
.func __start
	li $t0, 0
loop:
	addi $t0, $t0, 1
	slti $at, $t0, 100
	bnez $at, loop
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
`)
	cfg := Config{MemSize: 1 << 20}
	if _, err := Record(p, cfg, RecordOptions{Interval: 16}); err != nil {
		t.Fatal(err)
	}
	// The pool hands back the buffer Record just released (same
	// goroutine, no collection in between); a fresh one is zero anyway.
	b := acquireScratch(cfg.MemSize)
	defer b.release()
	if i := slices.IndexFunc(b.mem, func(c byte) bool { return c != 0 }); i >= 0 {
		t.Fatalf("pooled buffer holds a stale byte at %#x", i)
	}
}
