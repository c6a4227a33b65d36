package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/cluster"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	fleetobs "twosmart/internal/fleet"
	"twosmart/internal/monitor"
	"twosmart/internal/samplelog"
	"twosmart/internal/session"
	"twosmart/internal/shadow"
	"twosmart/internal/trace"
	"twosmart/internal/wire"
	"twosmart/internal/workload"
)

// traced is the -trace 1 run. It measures the fixed-rate phase twice:
// untraced (the cost baseline, as in the -trace 0 run) and on a fresh
// fleet with every scored chunk traced, scraping /debug/traces,
// /metrics and /debug/vars; then it times each layer's public functions
// on the workload's own inputs and chunk sizes, and prints the ledger.
func (b *bench) traced(ctx context.Context) (*result, error) {
	// Each fixed-rate phase gets three tenths of the budget.
	windows := int((time.Duration(b.o.seconds)*time.Second*3/10 - fixedWarm) / fixedWindow)
	if windows < 2 {
		windows = 2
	}
	f, _, err := b.setup(ctx, false, "untraced")
	if err != nil {
		return nil, err
	}
	plain, before, after, err := b.measureScraped(ctx, f, "plain", windows)
	f.stop()
	if err != nil {
		return nil, err
	}
	tf, _, err := b.setup(ctx, true, "traced")
	if err != nil {
		return nil, err
	}
	defer tf.stop()
	col := newTraceCollector(tf)
	tracedPh, err := b.measure(ctx, tf, b.plan(tf, "traced", b.w.streams, fixedWarm, fixedWindow, windows))
	col.stop()
	if err != nil {
		return nil, err
	}
	// Layer functions run on the servers' GOMAXPROCS, not the generator's.
	prev := runtime.GOMAXPROCS(serverProcs)
	layers, err := b.timeLayers(f, counters(before, after))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	m := b.layerMetrics(plain, tracedPh, before, after, col.records(), layers)
	b.meta["trace_records"] = len(col.records())
	out := &result{
		Correct:   plain.gate.bad == 0 && tracedPh.gate.bad == 0,
		Attempted: plain.res.sent + tracedPh.res.sent,
		Failed:    plain.gate.failed() + tracedPh.gate.failed(),
		Metrics:   m,
	}
	b.meta["fixed_rate"] = plain.res.plan.offered()
	b.printLedger(plain, layers, m)
	b.printMeta()
	for _, p := range append(plain.gate.problems, tracedPh.gate.problems...) {
		fmt.Fprintln(os.Stderr, "gate:", p)
	}
	if !out.Correct {
		return out, fmt.Errorf("correctness gate failed: %d streams untraced, %d traced", plain.gate.bad, tracedPh.gate.bad)
	}
	return out, nil
}

// measureScraped runs an untraced fixed-rate phase with the server
// processes' counters, memstats and system CPU scraped around it.
func (b *bench) measureScraped(ctx context.Context, f *fleet, tag string, windows int) (ph *phase, before, after snapshot, err error) {
	if before, err = f.scrape(); err != nil {
		return nil, before, after, err
	}
	if ph, err = b.measure(ctx, f, b.plan(f, tag, b.w.streams, fixedWarm, fixedWindow, windows)); err != nil {
		return nil, before, after, err
	}
	after, err = f.scrape()
	return ph, before, after, err
}

// snapshot is one scrape of every server process's counters and
// memstats.
type snapshot struct {
	at      time.Time
	metrics []*fleetobs.Metrics // one /metrics scrape per process, in f.procs order
	mallocs uint64
	gcCPU   time.Duration // GC CPU since start, summed over processes
	sysCPU  time.Duration // kernel CPU since start, summed over processes
}

func (f *fleet) scrape() (snapshot, error) {
	s := snapshot{at: time.Now()}
	for _, p := range f.procs {
		m, err := fleetobs.FetchMetrics(context.Background(), httpClient, p.debug)
		if err != nil {
			return s, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		s.metrics = append(s.metrics, m)
		ms, err := p.memstats()
		if err != nil {
			return s, err
		}
		s.mallocs += ms.Mallocs
		sys, err := p.sysCPU()
		if err != nil {
			return s, err
		}
		s.sysCPU += sys
		// GCCPUFraction is the share of GOMAXPROCS x uptime spent in GC.
		up := s.at.Sub(p.started)
		s.gcCPU += time.Duration(ms.GCCPUFraction * float64(serverProcs) * float64(up))
	}
	return s, nil
}

// counters returns the increase of a counter from before to after,
// summed over the server processes.
func counters(before, after snapshot) func(name string) float64 {
	return func(name string) float64 {
		var sum float64
		for i := range after.metrics {
			sum += fleetobs.Delta(before.metrics[i], after.metrics[i], name)
		}
		return sum
	}
}

// traceCollector polls every process's /debug/traces while a phase runs
// and keeps each record once.
type traceCollector struct {
	mu   sync.Mutex
	seen map[[2]uint64]bool
	recs []trace.Record
	quit chan struct{}
	done chan struct{}
}

func newTraceCollector(f *fleet) *traceCollector {
	c := &traceCollector{seen: map[[2]uint64]bool{}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// Every poll makes the server encode its whole ring as JSON, which
		// trace.overhead_frac then counts; polling twice a second keeps
		// that small while still sampling thousands of records.
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			for i, p := range f.procs {
				body, err := p.get("/debug/traces")
				if err != nil {
					continue
				}
				var d trace.Dump
				if json.Unmarshal(body, &d) != nil {
					continue
				}
				c.mu.Lock()
				for _, r := range d.Records {
					k := [2]uint64{uint64(i), r.TraceID}
					if !c.seen[k] {
						c.seen[k] = true
						c.recs = append(c.recs, r)
					}
				}
				c.mu.Unlock()
			}
			select {
			case <-c.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

func (c *traceCollector) stop() {
	close(c.quit)
	<-c.done
}

func (c *traceCollector) records() []trace.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs
}

// layerCost is one layer's measured cost per call on the workload's
// inputs.
type layerCost struct {
	name   string
	calls  float64 // calls per sample sent to the entry tier
	ns     float64 // per call
	allocs float64 // per call
}

// layerTimes holds the timed layer functions plus the chunk size they
// were timed at.
type layerTimes struct {
	chunk                       int
	decode, decodeVerdict       layerCost
	encode                      layerCost
	push, open, close           layerCost
	detect, anomaly, monitor    layerCost
	drift, samplelog, shadowOff layerCost
	route                       layerCost
	kernel, gc                  layerCost // measured per sample, not timed
}

// timeOp runs op (which performs calls calls) three times after one
// warm-up pass and returns the median ns and mean allocations per call.
func timeOp(calls int, op func()) (ns, allocs float64) {
	op()
	var times []float64
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		op()
		times = append(times, float64(time.Since(start))/float64(calls))
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	return median(times), float64(mallocs) / float64(3*calls)
}

// inputs returns n feature vectors of the workload's own traffic, in the
// order the generator sends them.
func (b *bench) inputs(n int) [][]float64 {
	out := make([][]float64, n)
	streams := b.w.streams
	for i := range out {
		out[i] = b.traf.features(i%b.w.conns, uint32(i/b.w.conns%streams), uint32(i/(b.w.conns*streams)))
	}
	return out
}

// Results of timed calls land here so the compiler cannot drop the calls.
var (
	scoreSink float64
	routeSink int
)

// timeLayers times each layer's public functions on the workload's
// inputs at the chunk size the traced phase observed (serve_batch_size).
func (b *bench) timeLayers(f *fleet, d func(string) float64) (*layerTimes, error) {
	const n = 8192
	in := b.inputs(n)
	lt := &layerTimes{chunk: 1}
	if c := d("serve_batch_size_count"); c > 0 {
		lt.chunk = int(math.Round(d("serve_batch_size_sum") / c))
	}
	if lt.chunk < 1 {
		lt.chunk = 1
	}
	chunks := func(fn func(chunk [][]float64)) func() {
		return func() {
			for off := 0; off < n; off += lt.chunk {
				fn(in[off:min(off+lt.chunk, n)])
			}
		}
	}

	// wire: Reader.Next per Sample and per Verdict frame, Writer.Write per
	// Verdict.
	var sampleFrames, verdictFrames []byte
	verdicts := make([]wire.Verdict, n)
	for i, fv := range in {
		var err error
		if sampleFrames, err = wire.Append(sampleFrames, wire.Sample{Stream: uint32(i % 512), Seq: uint32(i), Features: fv}); err != nil {
			return nil, err
		}
		verdicts[i] = wire.Verdict{Stream: uint32(i % 512), Seq: uint32(i), Flags: uint8(i % 3), Class: uint8(i % 5), Score: float64(i%97) / 97, Smoothed: float64(i%89) / 89}
		if verdictFrames, err = wire.Append(verdictFrames, verdicts[i]); err != nil {
			return nil, err
		}
	}
	readAll := func(buf []byte) func() {
		return func() {
			r := wire.NewReader(bytes.NewReader(buf))
			for {
				if _, err := r.Next(); err != nil {
					return
				}
			}
		}
	}
	lt.decode.ns, lt.decode.allocs = timeOp(n, readAll(sampleFrames))
	lt.decodeVerdict.ns, lt.decodeVerdict.allocs = timeOp(n, readAll(verdictFrames))
	wr := wire.NewWriter(io.Discard)
	lt.encode.ns, lt.encode.allocs = timeOp(n, func() {
		for _, v := range verdicts {
			wr.Write(v)
		}
		wr.Flush()
	})

	// session: Engine.Push in chunk-sized bursts drained by a real worker
	// loop; Scoring.OpenStream (which compiles the detector) and Close.
	ns, allocs, err := timePush(in, lt.chunk)
	if err != nil {
		return nil, err
	}
	lt.push = layerCost{ns: ns, allocs: allocs}
	gen := session.Generation{Detector: f.ref.model, Version: 1}
	if f.ref.env != nil {
		gen.Cascade, gen.CascadeThreshold = f.ref.env, f.ref.threshold
	}
	sc, err := session.NewScoring(session.ScoringConfig{Source: func() session.Generation { return gen }, Emit: nopEmitter{}})
	if err != nil {
		return nil, err
	}
	const opens = 256
	var streams []session.Stream
	var nextID uint32
	var openErr error
	lt.open.ns, lt.open.allocs = timeOp(opens, func() {
		for i := 0; i < opens && openErr == nil; i++ {
			var st session.Stream
			st, openErr = sc.OpenStream(nextID, fmt.Sprintf("bench-app%d", nextID))
			nextID++
			streams = append(streams, st)
		}
	})
	if openErr != nil {
		return nil, openErr
	}
	lt.close.ns, lt.close.allocs = timeOp(opens, func() {
		// Close the streams the matching open pass made, oldest first.
		for _, st := range streams[:opens] {
			st.Close(0)
		}
		streams = streams[opens:]
	})

	// core, anomaly, monitor, drift at the observed chunk size.
	det := f.ref.det
	vs := make([]core.Verdict, lt.chunk)
	scores := make([]float64, lt.chunk)
	lt.detect.ns, lt.detect.allocs = timeOp(n, chunks(func(c [][]float64) {
		det.DetectScoredBatch(vs[:len(c)], scores[:len(c)], c)
	}))
	env := f.ref.env
	if env == nil {
		e, err := anomaly.Train(f.ref.model.FeatureNames(), b.traf.benign(), anomaly.TrainConfig{Seed: b.o.seed})
		if err != nil {
			return nil, err
		}
		env = e.Compile()
	}
	lt.anomaly.ns, lt.anomaly.allocs = timeOp(n, func() {
		for _, fv := range in {
			scoreSink += env.Score(fv)
		}
	})
	tr, err := monitor.NewTracker(det, monitor.Config{})
	if err != nil {
		return nil, err
	}
	tr.OpenWith("bench-app", det)
	events := make([]monitor.Event, lt.chunk)
	lt.monitor.ns, lt.monitor.allocs = timeOp(n, chunks(func(c [][]float64) {
		tr.ObserveScoredBatch("bench-app", events[:len(c)], scores[:len(c)])
	}))
	ref, err := drift.BuildReference(b.traf.data, 0)
	if err != nil {
		return nil, err
	}
	dm, err := drift.NewMonitor(ref, drift.Config{})
	if err != nil {
		return nil, err
	}
	lt.drift.ns, lt.drift.allocs = timeOp(n, chunks(func(c [][]float64) { dm.ObserveBatch(c) }))

	// taps: samplelog.Writer.Append per record, shadow.Offer per sample.
	logDir := filepath.Join(b.dir, "layer-samplelog")
	w, err := samplelog.OpenWriter(samplelog.WriterConfig{Dir: logDir, QueueDepth: 4 * n})
	if err != nil {
		return nil, err
	}
	lt.samplelog.ns, lt.samplelog.allocs = timeOp(n, func() {
		for i, fv := range in {
			w.Append(samplelog.Record{Nanos: int64(i), Stream: uint32(i % 512), App: "bench-app", Flags: samplelog.FlagScored, Score: 0.5, Features: fv})
		}
	})
	if _, err := w.Close(); err != nil {
		return nil, err
	}
	os.RemoveAll(logDir)
	sh, err := shadow.New(f.ref.model, shadow.Config{Queue: 4 * n, Version: 2})
	if err != nil {
		return nil, err
	}
	lt.shadowOff.ns, lt.shadowOff.allocs = timeOp(n, func() {
		for _, fv := range in {
			sh.Offer(fv, shadow.Primary{Class: workload.Benign.String(), Score: 0.5})
		}
	})
	sh.Close()

	// cluster: Ring.Route per stream key.
	ring := cluster.BuildRing([]string{"shard-a", "shard-b"}, cluster.DefaultReplicas)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = cluster.RouteKey(fmt.Sprintf("agent-%d", i%b.w.conns), fmt.Sprintf("app%d", i))
	}
	lt.route.ns, lt.route.allocs = timeOp(n, func() {
		for _, k := range keys {
			routeSink += len(ring.Route(k))
		}
	})
	return lt, nil
}

// timePush times Engine.Push in chunk-sized bursts, each drained by the
// engine's own worker loop before the next burst, and returns ns and
// allocations per push.
func timePush(in [][]float64, chunk int) (ns, allocs float64, err error) {
	h := &countHandler{processed: make(chan int, 1)}
	eng, err := session.New(session.Config{Handler: h})
	if err != nil {
		return 0, 0, err
	}
	done := make(chan struct{})
	ran := make(chan error, 1)
	go func() { ran <- eng.Run(done) }()
	eng.Open(0, "bench-app")
	var busy time.Duration
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	pushes, total := 0, 0
	for pass := 0; pass < 4; pass++ {
		for off := 0; off < len(in); off += chunk {
			c := in[off:min(off+chunk, len(in))]
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i, fv := range c {
				eng.Push(0, uint32(off+i), 0, start, fv)
			}
			if pass > 0 { // the first pass warms the ring's buffer free list
				busy += time.Since(start)
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				pushes += len(c)
			}
			total += len(c)
			h.wait(total)
		}
	}
	close(done)
	if err := <-ran; err != nil {
		return 0, 0, err
	}
	return float64(busy) / float64(pushes), float64(mallocs) / float64(pushes), nil
}

// countHandler is a session.Handler whose single stream only counts the
// samples it is handed.
type countHandler struct {
	mu        sync.Mutex
	n         int
	processed chan int
}

func (h *countHandler) OpenStream(uint32, string) (session.Stream, error) { return h, nil }
func (h *countHandler) RoundEnd() error                                   { return nil }
func (h *countHandler) Close(uint64) error                                { return nil }
func (h *countHandler) Process(b session.Batch) error {
	h.mu.Lock()
	h.n += b.Len()
	n := h.n
	h.mu.Unlock()
	select {
	case h.processed <- n:
	default:
	}
	return nil
}

// wait blocks until target samples have been processed in total.
func (h *countHandler) wait(target int) {
	for {
		h.mu.Lock()
		n := h.n
		h.mu.Unlock()
		if n >= target {
			return
		}
		<-h.processed
	}
}

// nopEmitter discards the scoring handler's output.
type nopEmitter struct{}

func (nopEmitter) Verdicts(uint32, int, []uint32, []time.Time, []core.Verdict, []float64, []monitor.Event) error {
	return nil
}
func (nopEmitter) Summary(uint32, int, monitor.Summary, uint64) error { return nil }
func (nopEmitter) Flush() error                                       { return nil }

// hopStats returns p50 and p99 in µs of one hop over shard-tier records.
func hopStats(recs []trace.Record, h trace.Hop) (p50, p99 float64) {
	var v []int64
	for _, r := range recs {
		if r.Tier == trace.TierShard {
			v = append(v, r.Hops[h])
		}
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(quantile(v, 0.5)) / 1e3, float64(quantile(v, 0.99)) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics and the ledger shares.
//
// Counters, allocations, GC and kernel time come from the untraced
// phase (before/after bracket it); hop latencies from the traced one.
func (b *bench) layerMetrics(plain, traced *phase, before, after snapshot, recs []trace.Record, lt *layerTimes) map[string]metric {
	d := counters(before, after)
	sent := float64(plain.res.sent)
	streamsPerSample := float64(len(plain.res.streams)) / sent
	shortFrac := ratio(d("cascade_short_total"), d("cascade_short_total")+d("cascade_pass_total"))
	taps := 0.0 // the cascade and the taps run together (spec.taps)
	if b.w.taps {
		taps = 1
	}
	hops := 1.0 // tiers a sample crosses
	gwOnly := 0.0
	if b.w.gateway {
		hops, gwOnly = 2, 1
	}
	// Calls per sample sent, per layer, for the ledger. Through a gateway
	// a sample is decoded twice and its verdict once more at the relay;
	// it is encoded at the forward and its verdict twice (the forward's
	// Sample encode is costed as a Verdict encode). Only shards score, so
	// only they open a scoring stream per stream.
	lt.decode.calls = hops
	lt.decodeVerdict.calls = gwOnly
	lt.encode.calls = 2*gwOnly + 1
	lt.push.calls = hops
	lt.open.calls = streamsPerSample
	lt.close.calls = streamsPerSample
	lt.anomaly.calls = taps
	lt.detect.calls = 1 - shortFrac
	lt.monitor.calls = 1
	lt.drift.calls = taps
	lt.samplelog.calls = taps
	lt.shadowOff.calls = taps
	lt.route.calls = streamsPerSample * gwOnly

	// The kernel's share (syscalls, loopback TCP, scheduling) and the Go
	// collector are measured by the servers' own accounts, one call per
	// sample.
	lt.kernel = layerCost{calls: 1, ns: float64(after.sysCPU-before.sysCPU) / sent}
	lt.gc = layerCost{calls: 1, ns: float64(after.gcCPU-before.gcCPU) / sent}
	plainCPU := plain.medians().cpu
	var explained float64
	for _, l := range lt.all() {
		explained += l.ns * l.calls
	}
	hop := func(h trace.Hop) (float64, float64) { return hopStats(recs, h) }
	q50, q99 := hop(trace.HopQueue)
	a50, a99 := hop(trace.HopAssembly)
	s0, _ := hop(trace.HopStage0)
	sc50, sc99 := hop(trace.HopScore)
	e50, e99 := hop(trace.HopEmit)
	g50, g99 := hop(trace.HopGateway)
	gwCPU := float64(plain.gwCPU) / float64(plain.res.sent)
	m := map[string]metric{
		"gen.lag_p99_ms":            {ms(quantile(plain.res.all.lag, 0.99)), "ms"},
		"gen.cpu_ns_per_sample":     {float64(plain.genCPU) / float64(plain.res.sent), "ns"},
		"wire.decode_ns":            {lt.decode.ns, "ns"},
		"wire.decode_allocs":        {lt.decode.allocs, "count"},
		"wire.encode_ns":            {lt.encode.ns, "ns"},
		"wire.encode_allocs":        {lt.encode.allocs, "count"},
		"session.push_ns":           {lt.push.ns, "ns"},
		"session.batch_mean":        {ratio(d("serve_batch_size_sum"), d("serve_batch_size_count")), "count"},
		"session.shed_frac":         {ratio(d("serve_shed_total")+d("cluster_shed_total"), sent), "frac"},
		"session.open_us":           {lt.open.ns / 1e3, "us"},
		"session.close_us":          {lt.close.ns / 1e3, "us"},
		"hop.queue_us_p50":          {q50, "us"},
		"hop.queue_us_p99":          {q99, "us"},
		"hop.assembly_us_p50":       {a50, "us"},
		"hop.assembly_us_p99":       {a99, "us"},
		"hop.stage0_us_p50":         {s0, "us"},
		"hop.score_us_p50":          {sc50, "us"},
		"hop.score_us_p99":          {sc99, "us"},
		"hop.emit_us_p50":           {e50, "us"},
		"hop.emit_us_p99":           {e99, "us"},
		"hop.gateway_us_p50":        {g50, "us"},
		"hop.gateway_us_p99":        {g99, "us"},
		"core.detect_ns":            {lt.detect.ns, "ns"},
		"anomaly.score_ns":          {lt.anomaly.ns, "ns"},
		"anomaly.short_frac":        {shortFrac, "frac"},
		"monitor.observe_ns":        {lt.monitor.ns, "ns"},
		"drift.observe_ns":          {lt.drift.ns, "ns"},
		"samplelog.append_ns":       {lt.samplelog.ns, "ns"},
		"samplelog.drop_frac":       {ratio(d("samplelog_dropped_total"), d("samplelog_appended_total")+d("samplelog_dropped_total")), "frac"},
		"shadow.offer_ns":           {lt.shadowOff.ns, "ns"},
		"shadow.drop_frac":          {ratio(d("shadow_dropped_total"), d("shadow_observed_total")+d("shadow_dropped_total")), "frac"},
		"cluster.route_ns":          {lt.route.ns, "ns"},
		"cluster.cpu_ns_per_sample": {gwCPU, "ns"},
		"shard.cpu_ns_per_sample":   {float64(plain.cpu-plain.gwCPU) / float64(plain.res.sent), "ns"},
		"cluster.drop_frac":         {ratio(d("cluster_samples_dropped_total"), d("cluster_samples_total")), "frac"},
		"cluster.reroutes":          {d("cluster_streams_rerouted_total"), "count"},
		"server.allocs_per_sample":  {float64(after.mallocs-before.mallocs) / sent, "count"},
		"server.gc_cpu_frac":        {ratio(float64(after.gcCPU-before.gcCPU), float64(plain.cpu)), "frac"},
		"ledger.unexplained_frac":   {1 - explained/plainCPU, "frac"},
		"trace.overhead_frac":       {traced.medians().cpu/plainCPU - 1, "frac"},
		"e2e.cpu_ns_per_sample":     {plainCPU, "ns"},
		"e2e.cpu_rel_generator":     {plain.medians().rel, "ratio"},
		"e2e.latency_p50_ms":        {plain.medians().p50, "ms"},
		"e2e.latency_p99_ms":        {plain.medians().p99, "ms"},
		"e2e.miss_frac":             {plain.missFrac(), "frac"},
	}
	return m
}

func (lt *layerTimes) all() []layerCost {
	lt.decode.name, lt.decodeVerdict.name, lt.encode.name = "wire.decode (sample)", "wire.decode (verdict)", "wire.encode"
	lt.push.name, lt.open.name, lt.close.name = "session.push", "session.open", "session.close"
	lt.anomaly.name, lt.detect.name, lt.monitor.name = "anomaly.score", "core.detect", "monitor.observe"
	lt.drift.name, lt.samplelog.name, lt.shadowOff.name = "drift.observe", "samplelog.append", "shadow.offer"
	lt.route.name, lt.kernel.name, lt.gc.name = "cluster.route", "kernel (system time)", "runtime (GC)"
	return []layerCost{lt.decode, lt.decodeVerdict, lt.encode, lt.push, lt.open, lt.close, lt.anomaly,
		lt.detect, lt.monitor, lt.drift, lt.samplelog, lt.shadowOff, lt.route, lt.kernel, lt.gc}
}

// printLedger prints the per-layer cost table in one shape for every
// workload and reconciles it against the measured server CPU.
func (b *bench) printLedger(plain *phase, lt *layerTimes, m map[string]metric) {
	cpu := plain.medians().cpu
	fmt.Printf("ledger %s  seed %d  fixed rate %.0f samples/s  chunk %d  server cpu %.0f ns/sample\n",
		b.w.name, b.o.seed, plain.res.plan.offered(), lt.chunk, cpu)
	fmt.Printf("  %-22s %12s %12s %14s %10s %8s\n", "layer", "calls/sample", "ns/call", "ns/sample", "allocs", "share")
	var explained float64
	for _, l := range lt.all() {
		per := l.ns * l.calls
		explained += per
		fmt.Printf("  %-22s %12.4f %12.1f %14.1f %10.3f %7.1f%%\n", l.name, l.calls, l.ns, per, l.allocs, 100*per/cpu)
	}
	fmt.Printf("  %-22s %12s %12s %14.1f %10s %7.1f%%\n", "explained", "", "", explained, "", 100*explained/cpu)
	fmt.Printf("  %-22s %12s %12s %14.1f %10s %7.1f%%\n", "unexplained", "", "", cpu-explained, "", 100*(1-explained/cpu))
	if u := m["ledger.unexplained_frac"].Value; u < 0 || u >= 1 {
		fmt.Printf("  WARNING: ledger.unexplained_frac %.3f is outside [0, 1): the layer timings do not reconcile with server CPU\n", u)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
