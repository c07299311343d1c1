package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q·n samples at or below it).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts durations to millisecond samples.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// frac divides, returning 0 for an empty base.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the runtime counters the benchmark differences
// across a phase.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		idleCPU:      s[4].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects,
		a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.idleCPU + b.idleCPU}
}

// gcFrac is the share of non-idle CPU time the runtime attributes to the
// garbage collector in a difference of two samples.
func (a runtimeSample) gcFrac() float64 {
	return frac(a.gcCPU, a.totalCPU-a.idleCPU)
}

// The peak-RSS files stay open, and a reading reuses one buffer, so the
// readings taken around every op allocate nothing that would count
// towards the op's allocations.
var (
	statusFile, clearRefsFile *os.File
	statusBuf                 = make([]byte, 8192)
	clearRefsPeak             = []byte("5")
)

// openRSSFiles opens /proc/self/status and /proc/self/clear_refs once.
func openRSSFiles() {
	if statusFile == nil {
		statusFile, _ = os.Open("/proc/self/status")
		clearRefsFile, _ = os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	}
}

// peakRSS is the process's peak resident set size in MB since the last
// resetPeakRSS (or since start), from VmHWM in /proc/self/status; 0 when
// that cannot be read.
func peakRSS() float64 {
	openRSSFiles()
	if statusFile == nil {
		return 0
	}
	n, _ := statusFile.ReadAt(statusBuf, 0)
	buf := statusBuf[:n]
	i := bytes.Index(buf, []byte("VmHWM:"))
	if i < 0 {
		return 0
	}
	kb := 0
	for _, c := range buf[i+len("VmHWM:"):] {
		if c >= '0' && c <= '9' {
			kb = kb*10 + int(c-'0')
		} else if c != ' ' && c != '\t' {
			break
		}
	}
	return float64(kb) / 1024
}

// resetPeakRSS resets VmHWM to the current RSS (Linux clear_refs "5"). On
// kernels without it the peak simply keeps accumulating.
func resetPeakRSS() {
	openRSSFiles()
	if clearRefsFile == nil {
		peakResetFailed = true
		return
	}
	if _, err := clearRefsFile.Write(clearRefsPeak); err != nil {
		peakResetFailed = true
	}
}

// peakResetFailed records that peak readings are process-lifetime peaks.
var peakResetFailed bool

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// probeSink keeps the probe loops' results live.
var probeSink uint64

// hostProbe times one fixed ALU loop and one fixed loop of dependent
// random reads over 32 MiB, so a slow phase of the host shows beside the
// run's numbers instead of being read as a regression.
func hostProbe() map[string]float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	alu := time.Since(t0)

	const words = 32 << 20 / 8
	buf := make([]uint64, words)
	// A single random cycle through every word: each read depends on the
	// previous one, so the loop measures memory latency, not bandwidth.
	perm := make([]uint32, words)
	for i := range perm {
		perm[i] = uint32(i)
	}
	y := x
	for i := words - 1; i > 0; i-- {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		j := int(y % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < words; i++ {
		buf[perm[i]] = uint64(perm[(i+1)%words])
	}
	perm = nil
	t1 := time.Now()
	p := uint64(0)
	for i := 0; i < 2_000_000; i++ {
		p = buf[p]
	}
	mem := time.Since(t1)
	runtime.KeepAlive(buf)
	probeSink = x ^ p
	return map[string]float64{
		"alu_ms":   float64(alu) / float64(time.Millisecond),
		"mem32_ms": float64(mem) / float64(time.Millisecond),
	}
}
