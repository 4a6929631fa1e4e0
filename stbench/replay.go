package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sthist"
	"sthist/internal/core"
	"sthist/internal/geom"
	"sthist/internal/httpapi"
	"sthist/internal/index"
	"sthist/internal/mineclus"
	"sthist/internal/sthole"
	"sthist/internal/wal"
)

// validateEvery mirrors sthist.DefaultValidateEvery, the estimator's
// amortized invariant check, so the sthole replay does the same work.
const validateEvery = sthist.DefaultValidateEvery

// replay repeats a finished run's inputs layer by layer through each
// layer's public functions, with a span around every call, and reports the
// per-layer metrics. Its counts must equal what the end-to-end run
// reported; a difference is a failed check.
func replay(cfg config, work string, rep *report, in *inputs, res *servingRun) error {
	tr := newTracer()
	if err := replayBuildAndDrill(tr, rep, in); err != nil {
		return err
	}
	if err := replayEstimator(tr, rep, in); err != nil {
		return err
	}
	if err := replayWAL(tr, rep, in, filepath.Join(work, "trace-wal")); err != nil {
		return err
	}
	if err := replayHTTP(tr, rep, in, filepath.Join(work, "trace-http")); err != nil {
		return err
	}

	// dataset, mineclus and core make one call each, so their call count is
	// always 1, and only core's self time differs from its one timing (it
	// excludes the index counts seeding asks for).
	calls, self := tr.layerTotals()
	for _, l := range []string{"index", "sthole", "sthist", "wal", "httpapi"} {
		rep.setLayer(l+".calls", float64(calls[l]), "count")
		rep.setLayer(l+".self_ms", float64(self[l])/float64(time.Millisecond), "ms")
	}
	rep.setLayer("core.self_ms", float64(self["core"])/float64(time.Millisecond), "ms")
	// What the client saw beyond the in-process handler (train-offline has
	// no handler; its residue is against the estimator call itself).
	fbInner, estInner := "httpapi.feedback", "httpapi.estimate"
	if in.exactFeed {
		fbInner, estInner = "sthist.feedback_batch", "sthist.estimate"
	}
	rep.setLayer("net.feedback_residue_us", res.feedbackP50*1000-median(us(tr.durationsAfter(fbInner, in.fill))), "us")
	rep.setLayer("net.estimate_residue_us", res.estimateP50*1000-median(us(tr.durations(estInner))), "us")
	if _, ok := rep.layer["client.lateness_ms_p99"]; !ok {
		rep.setLayer("client.lateness_ms_p99", quantile(ms(res.gaps), 0.99), "ms")
	}
	return tr.write(filepath.Join(cfg.state, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// scalarCount is the sub-region count scalar feedback implies: the
// observed count spread uniformly over the query (Estimator.FeedbackBatch).
func scalarCount(q geom.Rect, actual float64) sthole.CountFunc {
	vol := q.Volume()
	return func(r geom.Rect) float64 {
		if vol <= 0 {
			return actual
		}
		return actual * q.IntersectionVolume(r) / vol
	}
}

// replayBuildAndDrill rebuilds the estimator's tree the way sthist.Open
// does (load, k-d tree, MineClus, seeding) and drills the feedback with the
// same counts the serving path uses, publishing and validating as the
// estimator does.
func replayBuildAndDrill(tr *tracer, rep *report, in *inputs) error {
	var tab *sthist.Table
	var err error
	tr.timed("dataset.load", func() { tab, err = loadTable(in.csv) })
	if err != nil {
		return err
	}
	rep.setLayer("dataset.load_ms", ms(tr.durations("dataset.load"))[0], "ms")

	var kd *index.KDTree
	tr.timed("index.build", func() { kd, err = index.BuildKDTree(tab) })
	if err != nil {
		return err
	}
	rep.setLayer("index.build_ms", ms(tr.durations("index.build"))[0], "ms")
	counts := 0
	exact := func(r geom.Rect) float64 {
		counts++
		i := tr.begin("index.count")
		c := kd.Count(r)
		tr.end(i)
		return float64(c)
	}

	domain := kd.Bounds()
	for d := range domain.Lo {
		if domain.Hi[d] <= domain.Lo[d] {
			domain.Hi[d] = domain.Lo[d] + 1
		}
	}
	hist, err := sthole.New(domain, in.buckets, float64(tab.Len()))
	if err != nil {
		return err
	}
	mc := mineclus.DefaultConfig()
	mc.Width = 0
	mc.Widths = make([]float64, domain.Dims())
	for d := range mc.Widths {
		mc.Widths[d] = 0.06 * domain.Side(d)
	}
	mc.Seed = tableSeed
	var clusters []mineclus.Cluster
	tr.timed("mineclus.run", func() { clusters, err = mineclus.Run(tab, mc) })
	if err != nil {
		return err
	}
	rep.setLayer("mineclus.run_ms", ms(tr.durations("mineclus.run"))[0], "ms")
	rep.setLayer("mineclus.clusters", float64(len(clusters)), "count")
	tr.timed("core.init", func() { err = core.Initialize(hist, clusters, domain, core.Options{Count: exact}) })
	if err != nil {
		return err
	}
	rep.setLayer("core.init_ms", ms(tr.durations("core.init"))[0], "ms")
	rep.setLayer("core.seed_buckets", float64(hist.BucketCount()), "count")

	// Feedback rounds, each as the estimator's writer runs it.
	before := hist.Stats
	counts = 0
	since := 0
	for k, q := range in.feedback {
		tr.trace = k + 1
		r := rect(q)
		count := scalarCount(r, in.actual[k])
		if in.exactFeed {
			count = exact
		} else {
			plain := count
			count = func(b geom.Rect) float64 { counts++; return plain(b) }
		}
		drills := hist.Stats.Drills
		tr.timed("sthole.drill", func() { hist.Drill(r, count) })
		if since++; since >= validateEvery {
			since = 0
			tr.timed("sthole.validate", func() { err = hist.Validate() })
			rep.check(err == nil, "replay: histogram invalid after round %d: %v", k, err)
		}
		if hist.Stats.Drills != drills {
			tr.timed("sthole.snapshot", func() { _ = hist.Snapshot() })
		}
	}
	tr.trace = 0
	rounds := float64(len(in.feedback))
	st := hist.Stats
	drills := float64(st.Drills - before.Drills)
	skipped := float64(st.SkippedExactDrills - before.SkippedExactDrills)
	rep.setLayer("index.counts_per_round", float64(counts)/rounds, "count")
	rep.setLayer("sthole.drills_per_round", drills/rounds, "count")
	rep.setLayer("sthole.skipped_per_round", skipped/rounds, "count")
	rep.setLayer("sthole.pc_merges_per_round", float64(st.ParentChildMerges-before.ParentChildMerges)/rounds, "count")
	rep.setLayer("sthole.sib_merges_per_round", float64(st.SiblingMerges-before.SiblingMerges)/rounds, "count")
	if drills+skipped > 0 {
		rep.setLayer("sthole.useful_drill_ratio", drills/(drills+skipped), "ratio")
	} else {
		rep.setLayer("sthole.useful_drill_ratio", 0, "ratio")
	}
	rep.setLayer("sthole.drill_ms_p50", median(ms(tr.durationsAfter("sthole.drill", in.fill))), "ms")
	rep.setLayer("sthole.snapshot_us_p50", median(us(tr.durations("sthole.snapshot"))), "us")
	rep.setLayer("sthole.validate_us_p50", median(us(tr.durations("sthole.validate"))), "us")
	rep.setLayer("sthole.buckets", float64(hist.BucketCount()), "count")
	rep.setLayer("sthole.depth", float64(hist.Depth()), "count")

	got := premise{
		FeedbackAcked: rep.premise.FeedbackAcked, Queries: st.Queries, Drills: st.Drills, Skipped: st.SkippedExactDrills,
		PCMerges: st.ParentChildMerges, SibMerges: st.SiblingMerges,
		WALRecords: rep.premise.WALRecords, Fsyncs: rep.premise.Fsyncs, Buckets: hist.BucketCount(), Depth: hist.Depth(),
	}
	rep.check(got == rep.premise, "layer replay counts %+v differ from the run's %+v", got, rep.premise)
	rep.info["replay_counts_match"] = got == rep.premise

	// The held-out counts have a span name of their own, so the count
	// quantiles do not move with the number of seeding or drill counts.
	for _, q := range estimateSet(in) {
		r := rect(q)
		tr.timed("sthole.estimate", func() { _ = hist.Estimate(r) })
		tr.timed("index.count_heldout", func() { _ = kd.Count(r) })
	}
	setQuantiles(rep, tr, "sthole.estimate", "sthole.estimate")
	setQuantiles(rep, tr, "index.count_heldout", "index.count")
	return nil
}

// estimateSet cycles the held-out queries to 2000 calls, enough samples
// for a p99 with ten beyond it.
func estimateSet(in *inputs) []box {
	out := make([]box, 2000)
	for i := range out {
		out[i] = in.heldOut[i%len(in.heldOut)]
	}
	return out
}

// setQuantiles reports the p50 and p99 of the spans named span, in
// microseconds, as name_us_p50 and name_us_p99.
func setQuantiles(rep *report, tr *tracer, span, name string) {
	xs := us(tr.durations(span))
	rep.setLayer(name+"_us_p50", median(xs), "us")
	rep.setLayer(name+"_us_p99", quantile(xs, 0.99), "us")
}

// replayEstimator drives the public estimator: Open, then the workload's
// feedback (FeedbackBatch of one observation, or one exact Train round),
// then estimates.
func replayEstimator(tr *tracer, rep *report, in *inputs) error {
	tab, err := loadTable(in.csv)
	if err != nil {
		return err
	}
	var est *sthist.Estimator
	tr.timed("sthist.open", func() { est, err = sthist.Open(tab, sthist.Options{Buckets: in.buckets, Seed: tableSeed}) })
	if err != nil {
		return err
	}
	rep.setLayer("sthist.open_ms", ms(tr.durations("sthist.open"))[0], "ms")
	for k, q := range in.feedback {
		tr.trace = k + 1
		r := rect(q)
		if in.exactFeed {
			tr.timed("sthist.feedback_batch", func() { est.Train([]sthist.Rect{r}) })
			continue
		}
		var errs []error
		tr.timed("sthist.feedback_batch", func() {
			errs = est.FeedbackBatch([]sthist.Observation{{Query: r, Actual: in.actual[k]}})
		})
		rep.check(errs[0] == nil, "replay: FeedbackBatch %d: %v", k, errs[0])
	}
	tr.trace = 0
	rep.setLayer("sthist.feedback_batch_ms_p50", median(ms(tr.durationsAfter("sthist.feedback_batch", in.fill))), "ms")
	st := est.StatsSnapshot()
	p := rep.premise
	rep.check(st.Queries == p.Queries && st.Drills == p.Drills && st.SkippedExactDrills == p.Skipped &&
		st.ParentChildMerges == p.PCMerges && st.SiblingMerges == p.SibMerges && st.Buckets == p.Buckets && st.TreeDepth == p.Depth,
		"estimator replay counts %+v differ from the run's %+v", st, p)
	for _, q := range estimateSet(in) {
		r := rect(q)
		tr.timed("sthist.estimate", func() { _ = est.Estimate(r) })
	}
	setQuantiles(rep, tr, "sthist.estimate", "sthist.estimate")
	return nil
}

// walProbe counts the log's durability callbacks and times its fsyncs.
type walProbe struct {
	appends int
	syncs   []time.Duration
}

func (p *walProbe) ObserveAppend(time.Duration, error)     { p.appends++ }
func (p *walProbe) ObserveSync(d time.Duration, _ error)   { p.syncs = append(p.syncs, d) }
func (p *walProbe) ObserveCheckpoint(time.Duration, error) {}

// replayWAL appends the feedback as the server does with one request in
// flight, one record per batch with an fsync, then reopens the log.
func replayWAL(tr *tracer, rep *report, in *inputs, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	probe := &walProbe{}
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Observer: probe})
	if err != nil {
		return err
	}
	for k, q := range in.feedback {
		tr.trace = k + 1
		recs := []wal.Record{{Lo: q.lo, Hi: q.hi, Actual: in.actual[k]}}
		tr.timed("wal.append", func() { _, err = l.AppendBatch(recs) })
		if err != nil {
			_ = l.Close()
			return fmt.Errorf("replay: wal append: %w", err)
		}
	}
	tr.trace = 0
	if err := l.Close(); err != nil {
		return err
	}
	n := float64(len(in.feedback))
	rep.setLayer("wal.append_us_p50", median(us(tr.durations("wal.append"))), "us")
	rep.setLayer("wal.fsync_us_p50", median(us(probe.syncs)), "us")
	rep.setLayer("wal.fsyncs_per_feedback", float64(len(probe.syncs))/n, "count")
	var size int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	rep.setLayer("wal.bytes_per_feedback", float64(size)/n, "bytes")

	var rc *wal.Recovery
	tr.timed("wal.open", func() { l, rc, err = wal.Open(dir, wal.Options{Sync: wal.SyncAlways}) })
	if err != nil {
		return err
	}
	_ = l.Close()
	rep.setLayer("wal.open_ms", ms(tr.durations("wal.open"))[0], "ms")
	rep.setLayer("wal.records_replayed", float64(len(rc.Records)), "count")
	rep.check(len(rc.Records) == len(in.feedback), "replay: wal reopened %d records of %d", len(rc.Records), len(in.feedback))
	rep.check(in.exactFeed || len(probe.syncs) == rep.premise.Fsyncs,
		"replay: %d fsyncs for the feedback, the server made %d", len(probe.syncs), rep.premise.Fsyncs)
	return nil
}

// replayHTTP serves the workload's requests through the HTTP handler in
// process, with a durable log behind it but no socket.
func replayHTTP(tr *tracer, rep *report, in *inputs, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	tab, err := loadTable(in.csv)
	if err != nil {
		return err
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: in.buckets, Seed: tableSeed})
	if err != nil {
		return err
	}
	probe := &walProbe{}
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Observer: probe})
	if err != nil {
		return err
	}
	defer l.Close()
	srv := httpapi.NewServer()
	if err := srv.RegisterDurable("t", est, l); err != nil {
		return err
	}
	defer srv.DrainFeedback()
	h := srv.Handler()
	serve := func(name, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		tr.timed(name, func() { h.ServeHTTP(w, req) })
		return w
	}
	for k, q := range in.feedback {
		tr.trace = k + 1
		w := serve("httpapi.feedback", "/feedback", feedbackBody(q, in.actual[k]))
		var resp feedbackResp
		err := json.Unmarshal(w.Body.Bytes(), &resp)
		rep.check(w.Code == http.StatusOK && err == nil && resp.Seq == uint64(k+1),
			"replay: in-process feedback %d answered %d %s", k, w.Code, w.Body.String())
	}
	tr.trace = 0
	rep.setLayer("httpapi.feedback_us_p50", median(us(tr.durationsAfter("httpapi.feedback", in.fill))), "us")
	batch := 0.0
	if probe.appends > 0 {
		batch = float64(len(in.feedback)) / float64(probe.appends)
	}
	rep.setLayer("httpapi.batch_size", batch, "count")
	for _, q := range estimateSet(in) {
		w := serve("httpapi.estimate", "/estimate", estimateBody(q))
		rep.check(w.Code == http.StatusOK, "replay: in-process estimate answered %d", w.Code)
	}
	setQuantiles(rep, tr, "httpapi.estimate", "httpapi.estimate")
	return nil
}
