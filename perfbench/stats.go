package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"etap/internal/obs"
)

// percentile is the p-th percentile (0 <= p <= 100) of vs, interpolated
// linearly between the two nearest samples; 0 for no samples.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }

// digest is a short content hash of a report, printed so two runs or two
// commits can be compared exactly.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// liveHeapMB is the heap the last garbage collection found live.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters is a scrape of the program's metric registry: series name
// (with labels, as exposed) to value.
type counters map[string]float64

// scrape reads every series the program exports on its default registry,
// through the same Prometheus text exposition GET /metrics serves.
func scrape() counters {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	c := make(counters)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		c[line[:i]] = v
	}
	return c
}

// delta is the change of one series between two scrapes.
func (c counters) delta(before counters, series string) float64 {
	return c[series] - before[series]
}
