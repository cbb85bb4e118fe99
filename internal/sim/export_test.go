package sim

import "etap/internal/isa"

// ReferenceRun runs the reference interpreter from scratch; the
// package's tests, internal and external, compare the engine against it.
func ReferenceRun(p *isa.Program, cfg Config) Result { return referenceRun(p, cfg) }
