package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// servingCfg sizes one serving workload. Every count is fixed, so a run
// does the same work whatever the machine; only the time it takes varies.
type servingCfg struct {
	dataset string
	scale   float64
	buckets int
	// feedback is the number of sequential durable /feedback requests per
	// cycle, one in flight, in a fixed order: the tree trajectory repeats
	// exactly. The first fill of them are not timed.
	feedback, fill int
	// closedEstimates is the closed-loop /estimate phase of each cycle, after
	// the feedback, split over two connections (plan-read).
	closedEstimates int
	// pacedRate and pacedCount make the open-loop /estimate stream that runs
	// beside the timed feedback on a second connection (feedback-churn). The
	// stream is sized to outlast that phase; what is left of it when the
	// feedback ends goes back to back and untimed, so the count is fixed.
	pacedRate  float64
	pacedCount int
	heldOut    int // queries never fed back: NAE and the read traffic
	probes     int // held-out queries compared bit for bit across recovery
	// cycles repeats start, feedback, reads, kill and recovery from an empty
	// data directory. Every metric pools or takes the median over cycles, so
	// each one is sampled across the whole run rather than in one window.
	cycles int
}

// servingRun holds the end-to-end figures the traced replay relates to.
type servingRun struct {
	feedbackP50, estimateP50 float64 // ms
	// gaps are the closed loop's idle times between an answer and the next
	// request: how late the generator ran when nothing paced it.
	gaps []time.Duration
}

// cycleResult is what one cycle observed.
type cycleResult struct {
	setup, recovery time.Duration
	fbLat           []time.Duration
	fbWall          time.Duration
	// beside is the share of timed feedback that started while the paced
	// stream was still running (1 when the stream outlasted the phase).
	beside float64
	// estLat are the reads estimate_p50_ms is taken from: the closed loop
	// where there is one, else the sequential evaluation pass.
	estLat     []time.Duration
	estWall    time.Duration
	gaps, late []time.Duration // closed-loop idle gaps; paced lateness
	pacedLat   []time.Duration // paced reads, from due time to answer
	stats      serverStats
	fsyncs     int
	fsyncSec   float64
	rssMB      float64
	fbCPU      time.Duration // server CPU in the feedback phase
	full       float64       // the full-domain estimate
}

// serving is one serving workload's fixed inputs and checks.
type serving struct {
	cfg        config
	sc         servingCfg
	rep        *report
	in         *inputs
	spec       serverSpec
	logDir     string
	fbBodies   [][]byte
	heldBodies [][]byte
	total      float64
	// held are cycle 0's answers to the held-out queries: the served NAE,
	// and what every later read of the same query must return bit for bit.
	held           []float64
	cpuPerEstimate time.Duration // server CPU of cycle 0's evaluation pass, per estimate
}

// runServing drives sthistd through cycles of set-up, durable feedback,
// reads, SIGKILL and recovery, checking every answer on the way.
func runServing(cfg config, work string, rep *report, sc servingCfg) (*inputs, *servingRun, error) {
	in, heldTruth, err := makeInputs(work, sc.dataset, sc.scale, sc.buckets, cfg.seed, sc.feedback, sc.heldOut)
	if err != nil {
		return nil, nil, err
	}
	in.fill = sc.fill
	s := &serving{
		cfg: cfg, sc: sc, rep: rep, in: in,
		spec:   serverSpec{bin: cfg.sthistd, csv: in.csv, buckets: sc.buckets, seed: tableSeed},
		logDir: filepath.Join(work, "logs"),
		total:  float64(in.tab.len()),
	}
	if err := os.MkdirAll(s.logDir, 0o755); err != nil {
		return nil, nil, err
	}
	for i, q := range in.feedback {
		s.fbBodies = append(s.fbBodies, feedbackBody(q, in.actual[i]))
	}
	for _, q := range in.heldOut {
		s.heldBodies = append(s.heldBodies, estimateBody(q))
	}

	var cycles []*cycleResult
	for i := 0; i < sc.cycles; i++ {
		c, err := s.cycle(i, work)
		if err != nil {
			return nil, nil, err
		}
		cycles = append(cycles, c)
	}

	// Every cycle starts from the same inputs, so the tree and its counters
	// repeat exactly; the answers are checked against cycle 0's as each cycle
	// reads.
	first := cycles[0]
	for i, c := range cycles[1:] {
		rep.check(c.stats == first.stats && c.fsyncs == first.fsyncs,
			"cycle %d: /stats %+v and %d fsyncs differ from cycle 0's %+v and %d", i+1, c.stats, c.fsyncs, first.stats, first.fsyncs)
	}
	st := first.stats
	rep.premise = premise{
		FeedbackAcked: len(s.fbBodies), Queries: st.Queries, Drills: st.Drills, Skipped: st.Skipped,
		PCMerges: st.ParentChildMerges, SibMerges: st.SiblingMerges,
		WALRecords: st.WAL.LastSeq, Fsyncs: first.fsyncs, Buckets: st.Buckets, Depth: st.TreeDepth,
	}

	triv := make([]float64, len(in.heldOut))
	for i, q := range in.heldOut {
		triv[i] = in.tab.trivial(q)
	}
	served, err := nae(s.held, heldTruth, triv)
	rep.check(err == nil, "served NAE: %v", err)
	rep.check(served < 1, "served NAE %.4f is not below 1 (the one-bucket histogram)", served)
	rep.setE2E("nae", served, "ratio")

	// Each timing is the median over cycles of that cycle's figure: a cycle
	// the machine disturbed (steal, a noisy neighbour) is outvoted. The two
	// p50s are quiet p50s over blocks of calls instead: see quietP50.
	var gaps, late []time.Duration
	var fbCycles, estCycles [][]time.Duration
	var fbCPU time.Duration
	var rss, fsyncMS, beside, timedReads []float64
	per := map[string][]float64{}
	fbN := 0
	for _, c := range cycles {
		for k, v := range map[string]float64{
			"setup_s":         c.setup.Seconds(),
			"recovery_s":      c.recovery.Seconds(),
			"feedback_p50_ms": median(ms(c.fbLat)),
			"feedback_ops_s":  float64(len(c.fbLat)) / c.fbWall.Seconds(),
			"estimate_p50_ms": median(ms(c.estLat)),
			"estimate_p99_ms": quantile(ms(c.estLat), 0.99),
			"estimate_ops_s":  float64(len(c.estLat)) / c.estWall.Seconds(),
		} {
			per[k] = append(per[k], v)
		}
		if sc.pacedCount > 0 {
			// Reported only; see README.md, "Dropped".
			per["paced_estimate_p50_ms"] = append(per["paced_estimate_p50_ms"], median(ms(c.pacedLat)))
		}
		fbCycles = append(fbCycles, c.fbLat)
		estCycles = append(estCycles, c.estLat)
		gaps = append(gaps, c.gaps...)
		late = append(late, c.late...)
		fbN += len(c.fbLat)
		fbCPU += c.fbCPU
		rss = append(rss, c.rssMB)
		beside = append(beside, c.beside)
		timedReads = append(timedReads, float64(len(c.pacedLat)))
		fsyncMS = append(fsyncMS, 1000*c.fsyncSec/math.Max(1, float64(c.fsyncs)))
	}
	rep.setCycleMedians(per)
	// Blocks of ten feedback (60-70 ms) and of 200 estimates (15-30 ms).
	fbP50, estP50 := quietP50(fbCycles, 10), quietP50(estCycles, 200)
	rep.setE2E("feedback_p50_ms", fbP50, "ms")
	rep.setE2E("estimate_p50_ms", estP50, "ms")
	rep.setE2E("peak_rss_mb", median(rss), "MB")

	// Server CPU per operation. In feedback-churn the paced reads share the
	// feedback phase; their CPU, priced at the evaluation pass's rate, is
	// taken out.
	paced := time.Duration(sc.pacedCount*len(cycles)) * s.cpuPerEstimate
	rep.setLayer("sthistd.cpu_ms_per_feedback", float64(fbCPU-paced)/float64(time.Millisecond)/float64(fbN), "ms")
	rep.setLayer("sthistd.cpu_us_per_estimate", float64(s.cpuPerEstimate)/float64(time.Microsecond), "us")
	if sc.pacedCount > 0 {
		rep.setLayer("client.lateness_ms_p99", quantile(ms(late), 0.99), "ms")
		rep.info["paced_beside_feedback"] = beside
		rep.info["paced_timed_reads"] = timedReads
	}
	rep.info["full_domain_estimate"] = first.full
	rep.info["tuples"] = s.total
	rep.info["server_fsync_mean_ms"] = fsyncMS
	return in, &servingRun{feedbackP50: fbP50, estimateP50: estP50, gaps: gaps}, nil
}

// cycle runs one start-to-recovery cycle from an empty data directory.
func (s *serving) cycle(i int, work string) (*cycleResult, error) {
	rep, sc := s.rep, s.sc
	c := &cycleResult{}
	dataDir := filepath.Join(work, "data")
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	srv, setup, err := startServer(s.spec, dataDir, filepath.Join(s.logDir, fmt.Sprintf("setup%d.log", i)))
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c.setup = setup
	fc := newConn(srv.base)
	defer fc.close()
	ec := newConn(srv.base)
	defer ec.close()

	// Feedback: sequential, one request in flight, exact counts. The first
	// sc.fill requests bring the tree to its budget and are not timed; in
	// feedback-churn the paced reads run beside the timed rest.
	var lastSeq uint64
	send := func(k int) time.Duration {
		t0 := time.Now()
		var resp feedbackResp
		err := fc.post("/feedback", s.fbBodies[k], &resp)
		d := time.Since(t0)
		rep.op("feedback", err != nil)
		if err != nil {
			rep.check(false, "cycle %d: feedback %d: %v", i, k, err)
			return d
		}
		rep.check(resp.OK && resp.Seq == lastSeq+1, "cycle %d: feedback %d acknowledged with seq %d after %d", i, k, resp.Seq, lastSeq)
		lastSeq = resp.Seq
		return d
	}
	for k := 0; k < sc.fill; k++ {
		send(k)
	}
	if sc.fill > 0 {
		// The timed feedback must all run at budget, where every drill may
		// merge: one regime, not two.
		var st serverStats
		if err := fc.get(srv.base+"/stats?table=t", &st); err != nil {
			return nil, err
		}
		rep.check(st.Buckets == sc.buckets, "cycle %d: %d buckets after the %d fill rounds, budget %d", i, st.Buckets, sc.fill, sc.buckets)
	}
	var paced pacedResult
	var pacedWG sync.WaitGroup
	fbDone := make(chan struct{})
	if sc.pacedCount > 0 {
		pacedWG.Add(1)
		go func() {
			defer pacedWG.Done()
			paced = runPaced(ec, s.heldBodies, sc.pacedRate, sc.pacedCount, fbDone)
		}()
	}
	cpu0, _ := srv.cpuTime()
	start := time.Now()
	var fbStarts []time.Time
	for k := sc.fill; k < len(s.fbBodies); k++ {
		fbStarts = append(fbStarts, time.Now())
		c.fbLat = append(c.fbLat, send(k))
	}
	c.fbWall = time.Since(start)
	close(fbDone)
	pacedWG.Wait()
	cpu1, _ := srv.cpuTime()
	c.fbCPU = cpu1 - cpu0
	if sc.pacedCount > 0 {
		for k, v := range paced.answers {
			rep.op("estimate", paced.errs[k] != nil)
			if paced.errs[k] != nil {
				rep.check(false, "cycle %d: paced estimate %d: %v", i, k, paced.errs[k])
				continue
			}
			rep.valid("paced estimate", v, s.total)
		}
		c.pacedLat, c.late = paced.lat, paced.late
		n := 0
		for _, t := range fbStarts {
			if t.Before(paced.pacedEnd) {
				n++
			}
		}
		c.beside = float64(n) / float64(len(fbStarts))
		rep.check(c.beside == 1, "cycle %d: the paced reads ran out before the feedback: %d of %d timed feedback had no reads beside them",
			i, len(fbStarts)-n, len(fbStarts))
	}

	// The evaluation pass reads every held-out query once, sequentially,
	// with no writer beside it. Cycle 0's answers give the served NAE; later
	// cycles build the same tree, so their answers must equal cycle 0's.
	if i == 0 {
		s.held = make([]float64, len(s.heldBodies))
	}
	cpu0, _ = srv.cpuTime()
	start = time.Now()
	for k, body := range s.heldBodies {
		var resp estimateResp
		t0 := time.Now()
		err := fc.post("/estimate", body, &resp)
		c.estLat = append(c.estLat, time.Since(t0))
		rep.op("estimate", err != nil)
		switch {
		case err != nil:
			rep.check(false, "cycle %d: estimate %d: %v", i, k, err)
			if i == 0 {
				s.held[k] = math.NaN()
			}
		case i == 0:
			rep.valid("held-out estimate", resp.Estimate, s.total)
			s.held[k] = resp.Estimate
		case math.Float64bits(resp.Estimate) != math.Float64bits(s.held[k]) && len(rep.problems) < 20:
			rep.check(false, "cycle %d: held-out estimate %d answered %v, %v in cycle 0", i, k, resp.Estimate, s.held[k])
		}
	}
	c.estWall = time.Since(start)
	cpu1, _ = srv.cpuTime()
	if i == 0 {
		s.cpuPerEstimate = (cpu1 - cpu0) / time.Duration(len(s.heldBodies))
	}
	if sc.closedEstimates > 0 {
		c.estLat, c.gaps, c.estWall = closedLoop(rep, []*conn{fc, ec}, s.heldBodies, s.held, sc.closedEstimates)
	}

	// The whole domain holds every tuple. Scalar feedback creates tuple mass
	// today (README.md), so this operation is expected to fail.
	var full estimateResp
	err = fc.post("/estimate", estimateBody(s.in.tab.domain()), &full)
	rep.op("full_domain", err != nil || math.Abs(full.Estimate-s.total) > fullDomainTolerance*s.total)
	c.full = full.Estimate

	if err := fc.get(srv.base+"/stats?table=t", &c.stats); err != nil {
		return nil, err
	}
	if c.fsyncs, c.fsyncSec, err = srv.fsyncs(fc); err != nil {
		return nil, err
	}
	acked := len(s.fbBodies)
	rep.check(c.stats.WAL.LastSeq == uint64(acked), "cycle %d: WAL holds %d records for %d acknowledged feedback", i, c.stats.WAL.LastSeq, acked)
	if c.rssMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}

	// Crash, then recover from a copy of the killed directory.
	srv.kill()
	recDir := filepath.Join(work, "recovered")
	if err := os.RemoveAll(recDir); err != nil {
		return nil, err
	}
	if err := copyDir(dataDir, recDir); err != nil {
		return nil, err
	}
	rs, rec, err := startServer(s.spec, recDir, filepath.Join(s.logDir, fmt.Sprintf("recover%d.log", i)))
	if err != nil {
		return nil, err
	}
	defer rs.kill()
	c.recovery = rec
	rc := newConn(rs.base)
	defer rc.close()
	var rst serverStats
	err = rc.get(rs.base+"/stats?table=t", &rst)
	rep.op("recovery", err != nil)
	rep.check(err == nil && rst == c.stats,
		"cycle %d: recovered /stats %+v; %+v before the kill (%v)", i, rst, c.stats, err)
	for k, body := range s.heldBodies[:sc.probes] {
		var resp estimateResp
		err := rc.post("/estimate", body, &resp)
		rep.op("estimate", err != nil)
		rep.check(err == nil && math.Float64bits(resp.Estimate) == math.Float64bits(s.held[k]),
			"cycle %d: recovered probe %d answers %v, %v in cycle 0 (%v)", i, k, resp.Estimate, s.held[k], err)
	}
	return c, nil
}

// closedLoop sends n estimates over the connections, each waiting for its
// answer before sending the next, and checks every answer equals the one
// the evaluation pass got for the same query: reads never change the tree.
func closedLoop(rep *report, conns []*conn, bodies [][]byte, want []float64, n int) (lat, gaps []time.Duration, wall time.Duration) {
	per := n / len(conns)
	lats := make([][]time.Duration, len(conns))
	gapsPer := make([][]time.Duration, len(conns))
	errs := make([][]string, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := make([]time.Duration, 0, per)
			g := make([]time.Duration, 0, per)
			var prev time.Time
			for k := 0; k < per; k++ {
				i := (k*len(conns) + c) % len(bodies)
				t0 := time.Now()
				if k > 0 {
					g = append(g, t0.Sub(prev))
				}
				var resp estimateResp
				err := conns[c].post("/estimate", bodies[i], &resp)
				prev = time.Now()
				l = append(l, prev.Sub(t0))
				switch {
				case err != nil:
					errs[c] = append(errs[c], err.Error())
				case math.Float64bits(resp.Estimate) != math.Float64bits(want[i]):
					errs[c] = append(errs[c], fmt.Sprintf("query %d answered %v, earlier %v", i, resp.Estimate, want[i]))
				}
			}
			lats[c], gapsPer[c] = l, g
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for c := range conns {
		lat = append(lat, lats[c]...)
		gaps = append(gaps, gapsPer[c]...)
		for k := 0; k < per; k++ {
			rep.op("estimate", false)
		}
		for _, e := range errs[c] {
			rep.check(false, "closed-loop estimate: %s", e)
		}
	}
	return lat, gaps, wall
}

type pacedResult struct {
	// lat and late cover the paced requests only: from due time to answer;
	// from due time to send.
	lat, late []time.Duration
	answers   []float64
	errs      []error
	pacedEnd  time.Time // when pacing stopped
}

// runPaced sends n estimates. While done is open they go at a fixed rate
// regardless of answers (an open loop), each timed from when it was due, so
// a stall also charges the requests queued behind it; late records how far
// the sender fell behind. Once done closes, the rest go back to back and
// untimed, so a run attempts the same reads however fast the machine is.
func runPaced(c *conn, bodies [][]byte, rate float64, n int, done <-chan struct{}) pacedResult {
	res := pacedResult{answers: make([]float64, n), errs: make([]error, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	paced := true
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if paced {
			if d := time.Until(due); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-done:
					t.Stop()
				}
			}
			select {
			case <-done:
				paced = false
				res.pacedEnd = time.Now()
			default:
				res.late = append(res.late, time.Since(due))
			}
		}
		var resp estimateResp
		res.errs[i] = c.post("/estimate", bodies[i%len(bodies)], &resp)
		res.answers[i] = resp.Estimate
		if paced {
			res.lat = append(res.lat, time.Since(due))
		}
	}
	if paced {
		res.pacedEnd = time.Now()
	}
	return res
}

func planRead(cfg config, work string, rep *report) error {
	// The budget fills within the first ten rounds; the untimed fill leaves
	// the timed rounds (about 2 s a cycle) all at budget.
	sc := servingCfg{
		dataset: "gauss", scale: 1, buckets: 250,
		feedback: 20 + 20*cfg.seconds, fill: 20,
		closedEstimates: 600 * cfg.seconds,
		heldOut:         2000, probes: 200,
		cycles: 4,
	}
	in, res, err := runServing(cfg, work, rep, sc)
	if err != nil || !cfg.trace {
		return err
	}
	return replay(cfg, work, rep, in, res)
}

func feedbackChurn(cfg config, work string, rep *report) error {
	// The read rate keeps the read connection about a quarter busy at the
	// 0.9 ms p50 a read takes beside this writer (README.md, "Read rate"):
	// reads seldom queue on each other, so their latency is the writer's
	// doing. The stream lasts 10 s a cycle at --seconds 10, against about
	// 2.6 s of timed feedback on a calm machine and 5.5 s at the slowest
	// seen; the check on paced_beside_feedback says when it ran short.
	sc := servingCfg{
		dataset: "cross", scale: 1, buckets: 1000,
		feedback: 60 * cfg.seconds, fill: 30 * cfg.seconds,
		pacedRate: 300, pacedCount: 300 * cfg.seconds,
		heldOut: 2000, probes: 200,
		cycles: 4,
	}
	in, res, err := runServing(cfg, work, rep, sc)
	if err != nil || !cfg.trace {
		return err
	}
	return replay(cfg, work, rep, in, res)
}
