// Command stbench is the end-to-end and per-layer benchmark of sthist. It
// runs one workload against a real sthistd process (or, for train-offline,
// the library in process), checks every answer against its own brute-force
// counts, and prints the metrics as the last line of standard output.
//
//	stbench -sthistd BIN -state DIR --workload plan-read --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same workload runs and is then replayed through the
// public functions of each layer, with a span around every call; the run
// prints the per-layer metrics instead of the end-to-end ones. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sthistd  string // path of the sthistd binary built from this checkout
	state    string // build-output directory: work files, premise records, spans
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "plan-read, feedback-churn or train-offline")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sets the fixed amount of work")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the workload layer by layer and prints per-layer metrics")
	flag.StringVar(&cfg.sthistd, "sthistd", "", "sthistd binary")
	flag.StringVar(&cfg.state, "state", ".bench_build", "directory for work files and records")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark process (in-process work: train-offline and the traced replay)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	work := filepath.Join(cfg.state, "work", cfg.workload)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	m := machineRecord()
	steal0 := stealTicks()
	rep := newReport()
	if err := wl(cfg, work, rep); err != nil {
		return err
	}
	m.StealMS = (stealTicks() - steal0) * 10 // USER_HZ is 100
	rep.checkRepeat(cfg)
	if rep.attempted() < 1 {
		return fmt.Errorf("no operation attempted")
	}
	emit("machine", m)
	emit("ops", rep.ops)
	emit("premise", rep.premise)
	emit("info", rep.info)
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	var metrics map[string]metric
	if cfg.trace {
		metrics = rep.layer
	} else {
		metrics = rep.e2e
	}
	failed := 0
	for _, o := range rep.ops {
		failed += o.Failed
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted(),
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(cfg config, work string, rep *report) error{
	"plan-read":      planRead,
	"feedback-churn": feedbackChurn,
	"train-offline":  trainOffline,
}

func emit(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// premise is the work a run did. For one seed and length it repeats
// exactly between runs, and the traced replay must reproduce it.
type premise struct {
	FeedbackAcked int    `json:"feedback_acked"`
	Queries       int    `json:"queries"`
	Drills        int    `json:"drills"`
	Skipped       int    `json:"skipped_drills"`
	PCMerges      int    `json:"parent_child_merges"`
	SibMerges     int    `json:"sibling_merges"`
	WALRecords    uint64 `json:"wal_records"`
	Fsyncs        int    `json:"fsyncs"`
	Buckets       int    `json:"buckets"`
	Depth         int    `json:"depth"`
}

// report collects what a workload measured and checked.
type report struct {
	ops      map[string]*opCount
	premise  premise
	e2e      map[string]metric
	layer    map[string]metric
	info     map[string]any
	problems []string
}

func newReport() *report {
	return &report{
		ops:   map[string]*opCount{},
		e2e:   map[string]metric{},
		layer: map[string]metric{},
		info:  map[string]any{},
	}
}

// op counts one attempted operation of the given type.
func (r *report) op(kind string, failed bool) {
	o := r.ops[kind]
	if o == nil {
		o = &opCount{}
		r.ops[kind] = o
	}
	o.Attempted++
	if failed {
		o.Failed++
	}
}

func (r *report) attempted() int {
	n := 0
	for _, o := range r.ops {
		n += o.Attempted
	}
	return n
}

// check records a violated property; any makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// valid checks that an estimate is a finite count within [0, total]; it
// records at most 20 such problems, enough to see the pattern.
func (r *report) valid(what string, v, total float64) {
	ok := !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= total
	if !ok && len(r.problems) < 20 {
		r.check(false, "%s: estimate %v outside [0, %v]", what, v, total)
	}
}

func (r *report) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

// setCycleMedians reports set-up and recovery time as the median over
// cycles of that cycle's figure, so a cycle the machine disturbed (steal, a
// noisy neighbour) is outvoted; the per-cycle figures go to the info line.
// The two p50s are quiet p50s that the caller sets (quietP50). The estimate
// p99, both rates and the paced read p50 of feedback-churn stay in the info
// line only: between runs of identical work they moved by more than any
// bound (README.md, "Dropped").
func (r *report) setCycleMedians(per map[string][]float64) {
	units := map[string]string{"setup_s": "s", "recovery_s": "s"}
	for k, xs := range per {
		if u, ok := units[k]; ok {
			r.setE2E(k, median(xs), u)
		}
	}
	r.info["cycles"] = per
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// checkRepeat compares this run's premise counts and operation counts with
// the first passing run of the same program, workload and length in this
// checkout, and records them when there is none: a workload that quietly
// stops doing the work it names is caught here. The program is identified
// by a hash of both binaries, so a change to the code starts a new record
// rather than failing against the old one, and a run that failed another
// check never becomes the reference. The seed draws only held-out queries,
// so the counts repeat across seeds too.
func (r *report) checkRepeat(cfg config) {
	id, err := programID(cfg.sthistd)
	if err != nil {
		r.check(false, "identify the program under test: %v", err)
		return
	}
	dir := filepath.Join(cfg.state, "premise")
	path := filepath.Join(dir, fmt.Sprintf("%s-%ds-%s.json", cfg.workload, cfg.seconds, id))
	cur, _ := json.Marshal(map[string]any{"premise": r.premise, "ops": r.ops})
	prev, err := os.ReadFile(path)
	if err == nil {
		same := string(prev) == string(cur)
		r.info["premise_repeats"] = same
		r.check(same, "premise counts differ from an earlier run of this program: %s now %s", prev, cur)
		return
	}
	if len(r.problems) > 0 {
		r.info["premise_repeats"] = "not recorded: the run failed a check"
		return
	}
	if os.MkdirAll(dir, 0o755) == nil {
		_ = os.WriteFile(path, cur, 0o644)
	}
	r.info["premise_repeats"] = "first run"
}

// programID is a short hash of the sthistd binary and of this benchmark's
// own binary, which links the library for the in-process work.
func programID(sthistd string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{sthistd, self} {
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		_ = f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
