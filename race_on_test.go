//go:build race

package etap

// raceEnabled reports that the race detector is compiled in. The
// convergence differential trims itself to two cheap benchmarks under
// it: the detector multiplies simulation cost by roughly an order of
// magnitude, and the code it audits is the same for every benchmark.
const raceEnabled = true
