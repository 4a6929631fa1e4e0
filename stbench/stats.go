package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietP50 returns a p50 in milliseconds that follows the work more than
// the machine. Each cycle repeats the same calls in the same order; it cuts
// every cycle's latencies into blocks of n consecutive calls, takes each
// block's p50, keeps for each block position the lowest over the cycles
// (the run's quietest spell for that stretch of work) and returns the
// median over positions. On a shared 2-core VM the speed of a call follows
// the neighbours on a scale of tens of milliseconds, so a median over whole
// cycles read how busy the machine was; a slower call slows every block,
// so a regression still shows (README.md, "Quiet p50").
func quietP50(cycles [][]time.Duration, n int) float64 {
	if len(cycles) == 0 {
		return 0
	}
	shortest := len(cycles[0])
	for _, lat := range cycles[1:] {
		shortest = min(shortest, len(lat))
	}
	var pos []float64
	for b := 0; b+n <= shortest; b += n {
		low := math.Inf(1)
		for _, lat := range cycles {
			low = math.Min(low, median(ms(lat[b:b+n])))
		}
		pos = append(pos, low)
	}
	return median(pos)
}

// ms and us convert a slice of durations for quantiles.
func ms(ds []time.Duration) []float64 { return scaled(ds, float64(time.Millisecond)) }
func us(ds []time.Duration) []float64 { return scaled(ds, float64(time.Microsecond)) }

func scaled(ds []time.Duration, unit float64) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / unit
	}
	return xs
}

// machine describes the host of a run. It is printed beside the result and
// never folded into a metric: it makes drift of the machine visible apart
// from changes of the program.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefLoopMS  float64 `json:"ref_loop_ms"`
	// StealMS is the steal time of the whole machine during the run,
	// summed over CPUs; filled in when the run ends.
	StealMS int64 `json:"steal_ms"`
}

var refSink uint64

func machineRecord() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close()
	}
	// A fixed integer loop: the same instructions on every run, so its time
	// tracks only the speed the machine gives this process right now.
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	m.RefLoopMS = float64(best) / float64(time.Millisecond)
	return m
}

// stealTicks reads the machine's total steal time from /proc/stat, in
// USER_HZ ticks: time the hypervisor ran someone else on our CPUs.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
