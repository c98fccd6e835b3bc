package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Phases of a run, as shares of -seconds: an open loop, then a closed
// loop, each cut into segments: of the open loop equal counts of
// requests in the order they were due, of the closed loop equal
// stretches of time. A metric is the best of its three segments (see
// best). A phase too short on requests for that is one segment: with
// fewer than minPerSegment requests each, segments differ more by which
// queries fell into them than by anything that happened to the run.
// The traced pass's closed loop alternates stretches with spans off
// and on.
const (
	openShare      = 0.5
	segmentsOf     = 3
	minPerSegment  = 32
	tracedStretchs = 3 // pairs of stretches, spans off then on
	// preRollShare is the length of the untimed stretch of closed loop
	// that runs before the timed one, as a share of the timed one. On
	// the host the benchmark was set up on, the first second or two
	// after both processors become busy run at about half speed; the
	// open loop before keeps neither busy.
	preRollShare = 0.25
)

// segmentCount is how many segments a phase of n requests is cut into.
func segmentCount(n int) int {
	if n/segmentsOf < minPerSegment {
		return 1
	}
	return segmentsOf
}

// setupRepeats is how many times a run sets the server up; setup_s is
// the median. The timed phases use the last one.
const setupRepeats = 3

// runOptions is what one workload run is asked to do.
type runOptions struct {
	seed    int64
	seconds float64 // length of the timed phases together
	setups  int     // server set-ups to time
	tr      *tracer // non-nil for the traced pass: per-layer metrics from the live run, client spans recorded here
	bin     string  // the acqserved binary
	outDir  string  // CSV and server logs go here
}

// runResult is one workload's outcome.
type runResult struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   map[string]int    `json:"samples"` // how many values stand behind the percentiles and rates
	Metrics   map[string]metric `json:"metrics"`
}

// setUp writes the history CSV, starts the workload's nodes, waits
// until they are ready and warms them over the workload's connections:
// a pool is asked once through every node, which plans it and opens the
// links between the nodes, and a /v1/plan pool once more, which is when
// a standalone server keeps the pre-serialized answer; a workload
// without a pool sends its warm-up queries, the first of which fits the
// requested model.
func setUp(ctx context.Context, w *world, seq *sequence, chk *checker, o runOptions) (*nodes, error) {
	csvPath := filepath.Join(o.outDir, "history.csv")
	if err := os.WriteFile(csvPath, w.csv, 0o644); err != nil {
		return nil, err
	}
	ns, err := startNodes(o.bin, csvPath, o.outDir, seq.spec.nodes)
	if err != nil {
		return nil, err
	}
	if err := ns.awaitReady(ctx, 30*time.Second); err != nil {
		return nil, errors.Join(err, ns.stop())
	}
	passes := [][]request{seq.warm}
	if seq.spec.pool > 0 {
		passes = passes[:0]
		for n := 0; n < seq.spec.nodes; n++ {
			pass := append([]request(nil), seq.pool...)
			for i := range pass {
				pass[i].target = n
			}
			passes = append(passes, pass)
		}
		if seq.spec.path == "/v1/plan" {
			passes = append(passes, passes[0])
		}
	}
	for _, pass := range passes {
		if err := warm(ctx, ns.urls, chk, pass); err != nil {
			return nil, errors.Join(err, ns.stop())
		}
	}
	return ns, nil
}

// warm sends one pass of warm-up requests over conns connections and
// fails on the first answer that does not pass the checks.
func warm(ctx context.Context, urls []string, chk *checker, pass []request) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := k; i < len(pass) && errs[k] == nil; i += conns {
				req := pass[i]
				status, body, err := c.post(ctx, urls[req.target]+req.path, req.body)
				if _, reason := chk.inspect(req, status, body, err); reason != "" {
					errs[k] = fmt.Errorf("bench: warm-up request %d: %s", i, reason)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// withWriter runs phase, beside the write schedule when the workload
// has one. The writer stops when the phase ends.
func withWriter(ctx context.Context, g *loadgen, nextBatch *int, phase func()) {
	if !g.seq.spec.writes {
		phase()
		return
	}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
	go func() {
		defer wg.Done()
		*nextBatch = g.write(wctx, *nextBatch)
	}()
	phase()
	cancel()
	wg.Wait()
}

// runWorkload measures one workload against freshly started servers.
func runWorkload(ctx context.Context, w *world, spec workloadSpec, o runOptions) (res runResult, err error) {
	seq := newSequence(w, spec, o.seed)
	chk := newChecker(w, spec, o.seed)

	var ns *nodes
	setups := make([]float64, 0, o.setups)
	for k := 0; k < o.setups; k++ {
		if ns != nil {
			if err := ns.stop(); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		if ns, err = setUp(ctx, w, seq, chk, o); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if serr := ns.stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	g := &loadgen{seq: seq, urls: ns.urls, chk: chk}
	openDur := o.seconds * openShare
	closedDur := time.Duration((o.seconds - openDur) * float64(time.Second))
	nOpen := int(float64(spec.rate)*openDur + 0.5)
	if nOpen < 1 {
		nOpen = 1
	}
	// Generate ahead what the phases should need, so that the timed path
	// finds its requests ready; a faster server than the rates were
	// frozen on just generates the rest as it goes.
	seq.at(nOpen + 5*int(float64(spec.rate)*closedDur.Seconds()))
	nextBatch := 0

	// Each timed phase starts on a host that is giving the guest both its
	// processors, or after waiting for one as long as the run may.
	mayWait := maxWaitPerRun
	waited := quietHost(ctx, o.outDir, &mayWait)
	var opened []record
	withWriter(ctx, g, &nextBatch, func() { opened = g.open(ctx, 0, nOpen, float64(spec.rate)) })
	waited += quietHost(ctx, o.outDir, &mayWait)

	// The closed loop: one stretch for the end-to-end pass, cut into
	// segments afterwards, with the servers' processor time read at every
	// cut; for the traced pass, alternating stretches with client spans
	// off and on, whose rates differ by what recording a span costs.
	var plain, traced [][]record
	var cpu []cpuSample
	first := nOpen
	stretch := func(tr *tracer, dur time.Duration, beside func(start time.Time)) (recs []record) {
		withWriter(ctx, g, &nextBatch, func() {
			start := time.Now()
			var wg sync.WaitGroup
			if beside != nil {
				wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
				go func() {
					defer wg.Done()
					beside(start)
				}()
			}
			recs = g.closedLoop(ctx, tr, first, start, dur)
			wg.Wait()
		})
		first += len(recs)
		return recs
	}
	stretch(nil, time.Duration(preRollShare*float64(closedDur)), nil)
	if o.tr == nil {
		var cpuErr error
		recs := stretch(nil, closedDur, func(start time.Time) {
			cpu, cpuErr = sampleCPU(ns, g, start, closedDur/segmentsOf, segmentsOf)
		})
		if cpuErr != nil {
			return res, cpuErr
		}
		plain = segments(recs, closedDur, segmentCount(len(recs)))
	} else {
		for k := 0; k < tracedStretchs; k++ {
			plain = append(plain, stretch(nil, closedDur/(2*tracedStretchs), nil))
			traced = append(traced, stretch(o.tr, closedDur/(2*tracedStretchs), nil))
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if err := chk.verify(ctx); err != nil {
		return res, err
	}

	res = runResult{Workload: spec.name, Samples: map[string]int{}, Metrics: map[string]metric{}}
	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.report()
	okOpen, okClosed := okOnly(opened), okOnly(flatten(plain))
	res.Samples["open_loop_ok"] = len(okOpen)
	res.Samples["closed_loop_ok"] = len(okClosed)
	res.Samples["waited_for_host_ms"] = int(waited.Milliseconds())
	if len(okOpen) == 0 || len(okClosed) == 0 {
		return res, fmt.Errorf("bench: %s: no successful requests to measure:\n%s", spec.name, strings.Join(res.Failures, "\n"))
	}
	if o.tr == nil {
		endToEnd(&res, opened, lateAfter(float64(spec.rate)), plain, cpu, setups)
		return res, nil
	}
	live, err := liveLayers(ctx, ns, okOpen, opened, lateAfter(float64(spec.rate)), okClosed, plain, traced)
	if err != nil {
		return res, err
	}
	live["host.waited_s"] = metric{waited.Seconds(), "s"}
	res.Metrics = live
	return res, nil
}

func flatten(stretches [][]record) []record {
	var out []record
	for _, s := range stretches {
		out = append(out, s...)
	}
	return out
}

func okOnly(recs []record) []record {
	out := make([]record, 0, len(recs))
	for _, r := range recs {
		if r.ok {
			out = append(out, r)
		}
	}
	return out
}

func pick(recs []record, f func(record) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

func latencyMS(r record) float64 { return float64(r.latency) / float64(time.Millisecond) }

// rates returns the throughput of every stretch that answered anything.
func rates(stretches [][]record) []float64 {
	var out []float64
	for _, s := range stretches {
		if rps := throughput(s); rps > 0 {
			out = append(out, rps)
		}
	}
	return out
}

// lateShare is the share of open-loop requests sent more than `after`
// past their due time, whatever held them up.
func lateShare(opened []record, after time.Duration) float64 {
	late := 0
	for _, r := range opened {
		if r.late > after {
			late++
		}
	}
	return float64(late) / float64(len(opened))
}

// ontimeShare is the share of open-loop requests the generator itself
// did not hold up: all but those a free connection had in hand before
// they were due and still sent more than `after` late. What the server
// holds up by keeping every connection busy is not counted here; it is
// in the latency, which runs from the due time.
func ontimeShare(opened []record, after time.Duration) float64 {
	held := 0
	for _, r := range opened {
		if !r.queued && r.late > after {
			held++
		}
	}
	return 1 - float64(held)/float64(len(opened))
}

// cpuSample is the servers' processor time and the closed loop's count
// of OK answers at one instant.
type cpuSample struct {
	seconds float64
	ok      int64
}

// sampleCPU reads a cpuSample at the start of the closed loop and at
// the end of each of its n segments.
func sampleCPU(ns *nodes, g *loadgen, start time.Time, segDur time.Duration, n int) ([]cpuSample, error) {
	out := make([]cpuSample, 0, n+1)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * segDur)))
		cpu, err := ns.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out = append(out, cpuSample{cpu, g.closed.Load()})
	}
	return out, nil
}

// cpuPerRequest turns the samples into n segments' milliseconds of
// processor time per OK answer; n divides the number of sampled
// segments. A request in flight at a cut is counted where it ends; its
// time before the cut stays with the segment before.
func cpuPerRequest(samples []cpuSample, n int) []float64 {
	var out []float64
	step := (len(samples) - 1) / n
	for k := 0; k+step < len(samples); k += step {
		a, b := samples[k], samples[k+step]
		if b.ok > a.ok {
			out = append(out, 1000*(b.seconds-a.seconds)/float64(b.ok-a.ok))
		}
	}
	return out
}

// best is the better of a metric's per-segment values: the lowest
// latency, the highest rate. What disturbs a run on a shared host, a
// neighbour taking processor time for a while, only ever makes a
// segment worse, so the best segment is the one that measured the
// program and not the neighbour. A median would need most of a run
// undisturbed; on the host the benchmark was set up on, whole seconds
// at half speed are common once both processors are busy.
func best(xs []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return percentile(xs, 0)
	}
	return percentile(xs, 100)
}

// endToEnd fills in the metrics a user of the service would see. The
// two shares that are normally zero, of failed and of late requests,
// are reported as their complements: a bound is a share of the parent's
// median, which has to be non-zero.
func endToEnd(res *runResult, opened []record, late time.Duration, segs [][]record, cpu []cpuSample, setups []float64) {
	var p50, p90, ontime []float64
	for k, n := 0, segmentCount(len(opened)); k < n; k++ {
		seg := opened[k*len(opened)/n : (k+1)*len(opened)/n]
		if ok := okOnly(seg); len(ok) > 0 {
			lat := pick(ok, latencyMS)
			p50 = append(p50, percentile(lat, 50))
			p90 = append(p90, percentile(lat, 90))
			ontime = append(ontime, ontimeShare(seg, late))
		}
	}
	// The mean runs over the whole open loop, in request order: its
	// request count is fixed, so the figure repeats to the last bit.
	ratio, n := 0.0, 0
	for _, r := range opened {
		if r.ok {
			ratio += r.ratio
			n++
		}
	}
	cpuMS := cpuPerRequest(cpu, len(segs))
	m := res.Metrics
	m["sat_rps"] = metric{best(rates(segs), false), "1/s"}
	m["p50_ms"] = metric{best(p50, true), "ms"}
	m["p90_ms"] = metric{best(p90, true), "ms"}
	m["cpu_ms_per_req"] = metric{best(cpuMS, true), "ms"}
	m["ok_share"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	m["cost_ratio"] = metric{ratio / float64(n), "ratio"}
	m["setup_s"] = metric{median(setups), "s"}
	m["ontime_share"] = metric{best(ontime, false), "ratio"}
}

// liveLayers computes the per-layer metrics that only a live run can
// give: what the generator itself costs, what the servers report about
// themselves, and what a forward hop adds.
func liveLayers(ctx context.Context, ns *nodes, okOpen, opened []record, late time.Duration, okClosed []record, plain, traced [][]record) (map[string]metric, error) {
	m := map[string]metric{}
	lat := pick(okOpen, latencyMS)
	m["loadgen.p99_ms"] = metric{percentile(lat, 99), "ms"}
	m["loadgen.late_p99_ms"] = metric{percentile(pick(opened, func(r record) float64 { return float64(r.late) / float64(time.Millisecond) }), 99), "ms"}
	m["loadgen.late_share"] = metric{lateShare(opened, late), "ratio"}

	elapsed := percentile(pick(okClosed, func(r record) float64 { return r.elapsedMS }), 50)
	m["serve.elapsed_ms_p50"] = metric{elapsed, "ms"}
	m["serve.plan_ms_p50"] = metric{percentile(pick(okClosed, func(r record) float64 { return r.planMS }), 50), "ms"}
	m["loadgen.closed_p50_ms"] = metric{percentile(pick(okClosed, latencyMS), 50), "ms"}
	m["loadgen.http_overhead_us"] = metric{1000 * (m["loadgen.closed_p50_ms"].Value - elapsed), "us"}

	share := 0.0
	if on, off := median(rates(traced)), median(rates(plain)); off > 0 {
		share = 1 - on/off
	}
	m["trace.overhead_share"] = metric{share, "ratio"}

	var fwd, local []float64
	for _, r := range okOpen {
		if r.forwarded {
			fwd = append(fwd, latencyMS(r))
		} else {
			local = append(local, latencyMS(r))
		}
	}
	m["cluster.forward_share"] = metric{float64(len(fwd)) / float64(len(okOpen)), "ratio"}
	hop := 0.0
	if len(fwd) > 0 && len(local) > 0 {
		hop = 1000 * (median(fwd) - median(local))
	}
	m["cluster.forward_hop_us"] = metric{hop, "us"}

	scraped, err := ns.scrape(ctx)
	if err != nil {
		return nil, err
	}
	hits, misses := scraped["acqserved_cache_hits"]+scraped["acqserved_flight_shared"], scraped["acqserved_cache_misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	m["serve.cache_hit_rate"] = metric{rate, "ratio"}
	m["serve.planner_calls"] = metric{scraped["acqserved_planner_calls"], "count"}
	m["serve.shed_requests"] = metric{scraped["acqserved_shed_requests"], "count"}
	m["cluster.forward_retries"] = metric{scraped["acqserved_cluster_forward_retries"], "count"}
	m["cluster.failovers"] = metric{scraped["acqserved_cluster_forward_failovers"], "count"}
	m["cluster.breaker_opens"] = metric{scraped["acqserved_cluster_breaker_opens"], "count"}
	m["proc.rss_mb"] = metric{ns.peakRSSMB(), "MB"}
	m["host.slowdown_of_two"] = metric{slowdownOfTwo(), "ratio"}
	return m, nil
}

// scrape sums every node's unlabelled /metrics counters by name. It
// reads none of the acqserved_plan_latency_ms_* gauges, which are due
// to be removed.
func (ns *nodes) scrape(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range ns.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("bench: scraping %s: %w", u, err)
		}
		err = addCounters(sum, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: scraping %s: %w", u, err)
		}
	}
	return sum, nil
}

func addCounters(sum map[string]float64, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsAny(name, "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			sum[name] += v
		}
	}
	return sc.Err()
}

// resultLine is the last line a single-workload run prints.
func resultLine(res runResult) (string, error) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	return string(line), err
}
