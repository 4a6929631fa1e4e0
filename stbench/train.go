package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sthist"
)

// trainCfg sizes the in-process training workload.
type trainCfg struct {
	dataset   string
	scale     float64
	buckets   int
	rounds    int // exact-count training rounds per cycle, one query each
	estimates int // closed-loop in-process estimates per cycle
	heldOut   int
	probes    int
	cycles    int // open, train, read and restart, repeated from scratch
	restarts  int // timed restarts per cycle
}

func rect(q box) sthist.Rect {
	r, err := sthist.NewRect(q.lo, q.hi)
	if err != nil {
		panic(err) // generated queries always have lo <= hi
	}
	return r
}

// openTable loads the CSV the way a user of the library would and opens an
// estimator over it.
func openTable(path string, opts sthist.Options) (*sthist.Table, *sthist.Estimator, error) {
	tab, err := loadTable(path)
	if err != nil {
		return nil, nil, err
	}
	est, err := sthist.Open(tab, opts)
	return tab, est, err
}

func loadTable(path string) (*sthist.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sthist.LoadCSV(f)
}

// trainOffline is the paper's simulation loop in process: open a seeded
// estimator, train it with exact counts, evaluate it on held-out queries
// and restart it from its saved histogram, in cycles; once, train an
// unseeded estimator on the same queries for the paper's comparison.
func trainOffline(cfg config, work string, rep *report) error {
	tc := trainCfg{
		dataset: "sky", scale: 0.1, buckets: 100,
		rounds:    50 * cfg.seconds,
		estimates: 15000 * cfg.seconds,
		heldOut:   2000, probes: 200,
		cycles: 3, restarts: 3,
	}
	in, heldTruth, err := makeInputs(work, tc.dataset, tc.scale, tc.buckets, cfg.seed, tc.rounds, tc.heldOut)
	if err != nil {
		return err
	}
	in.exactFeed = true
	total := float64(in.tab.len())
	opts := sthist.Options{Buckets: tc.buckets, Seed: tableSeed}
	self := os.Getpid()
	train := make([]sthist.Rect, len(in.feedback))
	for i, q := range in.feedback {
		train[i] = rect(q)
	}
	held := make([]sthist.Rect, len(in.heldOut))
	triv := make([]float64, len(in.heldOut))
	for i, q := range in.heldOut {
		held[i] = rect(q)
		triv[i] = in.tab.trivial(q)
	}
	snap := filepath.Join(work, "histogram.json")

	// Each timing is the median over cycles of that cycle's figure, except
	// the two p50s: see quietP50.
	per := map[string][]float64{}
	var fbCycles, estCycles [][]time.Duration
	var lat, elat, gaps []time.Duration
	var trainCPU, estCPU time.Duration
	var first []float64
	var firstStats sthist.TableStats
	for cyc := 0; cyc < tc.cycles; cyc++ {
		runtime.GC()
		start := time.Now()
		tab, est, err := openTable(in.csv, opts)
		if err != nil {
			return err
		}
		per["setup_s"] = append(per["setup_s"], time.Since(start).Seconds())

		cpu0, _ := procCPU(self)
		start = time.Now()
		clat := make([]time.Duration, len(train))
		for k, q := range train {
			t0 := time.Now()
			est.Train([]sthist.Rect{q})
			clat[k] = time.Since(t0)
			rep.op("train", false)
		}
		per["feedback_ops_s"] = append(per["feedback_ops_s"], float64(len(train))/time.Since(start).Seconds())
		per["feedback_p50_ms"] = append(per["feedback_p50_ms"], median(ms(clat)))
		fbCycles = append(fbCycles, clat)
		lat = append(lat, clat...)
		cpu1, _ := procCPU(self)
		trainCPU += cpu1 - cpu0

		answers := make([]float64, len(held))
		for i, q := range held {
			answers[i] = est.Estimate(q)
			rep.op("estimate", false)
			rep.valid("seeded estimate", answers[i], total)
		}
		st := est.StatsSnapshot()
		if cyc == 0 {
			first, firstStats = answers, st
			if err := compareUnseeded(rep, tab, tc, in, train, held, first, heldTruth, triv); err != nil {
				return err
			}
			full := est.Estimate(rect(in.tab.domain()))
			rep.info["full_domain_estimate"] = full
			rep.info["tuples"] = total
			rep.check(math.Abs(full-total) <= fullDomainTolerance*total,
				"exact-count training: full-domain estimate %.1f misses the %v tuples by more than %.0f%%", full, total, 100*fullDomainTolerance)
		} else {
			rep.check(st == firstStats, "cycle %d: estimator stats %+v differ from cycle 0's %+v", cyc, st, firstStats)
			for i := range answers {
				if math.Float64bits(answers[i]) != math.Float64bits(first[i]) {
					rep.check(false, "cycle %d: held-out answer %d is %v, %v in cycle 0", cyc, i, answers[i], first[i])
					break
				}
			}
		}

		// Closed loop in process, one caller, cycling over the held-out
		// queries; reads never change the tree.
		mismatch := 0
		var prev time.Time
		cpu0, _ = procCPU(self)
		start = time.Now()
		celat := make([]time.Duration, tc.estimates)
		for k := range celat {
			i := k % len(held)
			t0 := time.Now()
			if k > 0 {
				gaps = append(gaps, t0.Sub(prev))
			}
			v := est.Estimate(held[i])
			prev = time.Now()
			celat[k] = prev.Sub(t0)
			if math.Float64bits(v) != math.Float64bits(first[i]) {
				mismatch++
			}
			rep.op("estimate", false)
		}
		per["estimate_ops_s"] = append(per["estimate_ops_s"], float64(len(celat))/time.Since(start).Seconds())
		per["estimate_p50_ms"] = append(per["estimate_p50_ms"], median(ms(celat)))
		estCycles = append(estCycles, celat)
		per["estimate_p99_ms"] = append(per["estimate_p99_ms"], quantile(ms(celat), 0.99))
		elat = append(elat, celat...)
		cpu1, _ = procCPU(self)
		estCPU += cpu1 - cpu0
		rep.check(mismatch == 0, "cycle %d: %d repeated estimates differ from the first answer", cyc, mismatch)

		var saved bytes.Buffer
		if err := est.SaveHistogram(&saved); err != nil {
			return err
		}
		if err := os.WriteFile(snap, saved.Bytes(), 0o644); err != nil {
			return err
		}
		// A restart takes about half a second and varied by a fifth between
		// cycles of one run, so each cycle restarts several times.
		for k := 0; k < tc.restarts; k++ {
			runtime.GC()
			start = time.Now()
			restarted, err := restart(in.csv, snap, sthist.Options{Buckets: tc.buckets, Seed: tableSeed, SkipInitialization: true})
			per["recovery_s"] = append(per["recovery_s"], time.Since(start).Seconds())
			rep.op("recovery", err != nil)
			if err != nil {
				rep.check(false, "cycle %d: restart: %v", cyc, err)
				continue
			}
			for j := 0; j < tc.probes; j++ {
				v := restarted.Estimate(held[j])
				rep.op("estimate", false)
				rep.check(math.Float64bits(v) == math.Float64bits(first[j]),
					"cycle %d: restarted probe %d answers %v, %v before", cyc, j, v, first[j])
			}
		}
	}

	rep.setCycleMedians(per)
	// Blocks of one pass over the held-out queries (about 12 ms) and of ten
	// training rounds (about 25 ms).
	estP50, fbP50 := quietP50(estCycles, len(held)), quietP50(fbCycles, 10)
	rep.setE2E("estimate_p50_ms", estP50, "ms")
	rep.setE2E("feedback_p50_ms", fbP50, "ms")
	rep.setLayer("sthistd.cpu_ms_per_feedback", float64(trainCPU)/float64(time.Millisecond)/float64(len(lat)), "ms")
	rep.setLayer("sthistd.cpu_us_per_estimate", float64(estCPU)/float64(time.Microsecond)/float64(len(elat)), "us")
	rep.premise = premise{
		FeedbackAcked: len(train), Queries: firstStats.Queries, Drills: firstStats.Drills, Skipped: firstStats.SkippedExactDrills,
		PCMerges: firstStats.ParentChildMerges, SibMerges: firstStats.SiblingMerges, Buckets: firstStats.Buckets, Depth: firstStats.TreeDepth,
	}
	rss, err := peakRSSMB(self)
	if err != nil {
		return err
	}
	rep.setE2E("peak_rss_mb", rss, "MB")
	if !cfg.trace {
		return nil
	}
	return replay(cfg, work, rep, in, &servingRun{feedbackP50: fbP50, estimateP50: estP50, gaps: gaps})
}

// compareUnseeded trains an estimator without subspace-cluster seeding on
// the same queries and checks the paper's claim: seeding lowers the NAE.
func compareUnseeded(rep *report, tab *sthist.Table, tc trainCfg, in *inputs, train, held []sthist.Rect, seeded, truth, triv []float64) error {
	unseeded, err := sthist.Open(tab, sthist.Options{Buckets: tc.buckets, Seed: tableSeed, SkipInitialization: true})
	if err != nil {
		return err
	}
	unseeded.Train(train)
	base := make([]float64, len(held))
	for i, q := range held {
		base[i] = unseeded.Estimate(q)
		rep.op("estimate", false)
		rep.valid("unseeded estimate", base[i], float64(in.tab.len()))
	}
	seededNAE, err := nae(seeded, truth, triv)
	rep.check(err == nil, "seeded NAE: %v", err)
	baseNAE, err := nae(base, truth, triv)
	rep.check(err == nil, "unseeded NAE: %v", err)
	rep.check(seededNAE < baseNAE, "seeded NAE %.4f is not below unseeded NAE %.4f", seededNAE, baseNAE)
	rep.check(seededNAE < 1, "seeded NAE %.4f is not below 1 (the one-bucket histogram)", seededNAE)
	rep.setE2E("nae", seededNAE, "ratio")
	rep.info["unseeded_nae"] = baseNAE
	return nil
}

// restart opens an estimator without clustering and installs a saved
// histogram, as a restarted process would.
func restart(csv, snap string, opts sthist.Options) (*sthist.Estimator, error) {
	_, est, err := openTable(csv, opts)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return est, est.LoadHistogram(f)
}
