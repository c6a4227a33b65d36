package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// Phase shapes. The fixed-rate phase is measured in 250 ms windows after
// a one-second warm-up; each figure is the median over its windows, so
// a scheduling stall on a shared machine moves a few windows, not the
// result. A search step is shorter: five 0.4 s windows after 0.3 s of
// warm-up, passing when at least three windows pass.
const (
	fixedWarm   = time.Second
	fixedWindow = 250 * time.Millisecond
	stepWarm    = 300 * time.Millisecond
	stepWindow  = 400 * time.Millisecond
	stepWindows = 5
)

// plan is the workload's load phase at streams per connection.
func (b *bench) plan(f *fleet, tag string, streams int, warm, window time.Duration, windows int) loadPlan {
	return loadPlan{
		addr:     f.entry,
		agent:    fmt.Sprintf("agent-%s", tag),
		conns:    b.w.conns,
		streams:  streams,
		period:   samplePeriod,
		life:     b.w.life,
		dur:      warm + window*time.Duration(windows),
		warm:     warm,
		window:   window,
		deadline: deadline,
		features: b.traf.features,
	}
}

// phase is one measured load phase: the generator's view plus the
// server processes' CPU over it, in total and per statistics window.
type phase struct {
	res     *loadResult
	gate    gateResult
	cpu     time.Duration   // all server processes, whole phase
	gwCPU   time.Duration   // the gateway alone, whole phase
	genCPU  time.Duration   // this process, whole phase
	winCPU  []time.Duration // all server processes, per statistics window
	winGen  []time.Duration // this process, per statistics window
	started time.Time       // when the phase began dialling
}

func (ph *phase) missFrac() float64 {
	return ph.res.all.miss()
}

// measure runs one load phase against the fleet, sampling the server
// processes' CPU at every window boundary, then runs the correctness
// gate over it.
func (b *bench) measure(ctx context.Context, f *fleet, p loadPlan) (*phase, error) {
	ph := &phase{started: time.Now()}
	cpu0, gw0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	// Leave time to dial and open the first streams before the schedule
	// starts.
	t0 := time.Now().Add(50*time.Millisecond + openLead)
	n := int((p.dur - p.warm) / p.window)
	// ticks and gens are the servers' and this process's CPU at each
	// window boundary; reading the servers' accounts costs this process
	// CPU in proportion to their thread count, which readCost keeps out
	// of the generator's windows.
	ticks := make([]time.Duration, n+1)
	gens := make([]time.Duration, n+1)
	readCost := make([]time.Duration, n+1)
	sampled := make(chan error, 1)
	abort := make(chan struct{})
	go func() {
		var err error
		for k := 0; k <= n && err == nil; k++ {
			select {
			case <-time.After(time.Until(t0.Add(p.warm + time.Duration(k)*p.window))):
				gens[k] = selfCPU()
				ticks[k], _, err = f.cpu()
				readCost[k] = selfCPU() - gens[k]
			case <-abort:
				err = errors.New("load phase aborted")
			}
		}
		sampled <- err
	}()
	res, err := runLoad(ctx, p, t0)
	if err != nil {
		close(abort)
	}
	serr := <-sampled
	if err != nil {
		if aerr := f.alive(); aerr != nil {
			err = fmt.Errorf("%w (%v)", err, aerr)
		}
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	ph.res = res
	ph.genCPU = selfCPU() - gen0
	cpu1, gw1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	ph.cpu, ph.gwCPU = cpu1-cpu0, gw1-gw0
	for k := 0; k < n; k++ {
		ph.winCPU = append(ph.winCPU, ticks[k+1]-ticks[k])
		ph.winGen = append(ph.winGen, gens[k+1]-gens[k]-readCost[k])
	}
	ph.gate = f.ref.check(res)
	return ph, nil
}

// windowMedians summarises a phase window by window: the median over
// windows of p50 and p99 latency (ms), of server and generator CPU per
// sample (ns) and of server CPU over the generator's CPU in the same
// window.
type windowMedians struct {
	p50, p99, cpu, gen, lagP99, rel float64
}

func (ph *phase) medians() windowMedians {
	var p50, p99, cpu, gen, lag, rel []float64
	for i, w := range ph.res.windows {
		if w.measured == 0 {
			continue
		}
		p50 = append(p50, ms(quantile(w.lat, 0.50)))
		p99 = append(p99, ms(quantile(w.lat, 0.99)))
		lag = append(lag, ms(quantile(w.lag, 0.99)))
		if i < len(ph.winCPU) {
			cpu = append(cpu, float64(ph.winCPU[i])/float64(w.measured))
			gen = append(gen, float64(ph.winGen[i])/float64(w.measured))
			if ph.winGen[i] > 0 {
				rel = append(rel, float64(ph.winCPU[i])/float64(ph.winGen[i]))
			}
		}
	}
	return windowMedians{median(p50), median(p99), median(cpu), median(gen), median(lag), median(rel)}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupMedian sets the fleet up setups times, tearing all but the last
// down, and returns the last fleet with the median set-up CPU time and
// wall time in seconds.
func (b *bench) setupMedian(ctx context.Context, traced bool) (f *fleet, cpu, wall float64, err error) {
	var cpus, walls []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
		}
		var c setupCost
		f, c, err = b.setup(ctx, traced, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, 0, 0, err
		}
		cpus = append(cpus, c.cpu.Seconds())
		walls = append(walls, c.wall.Seconds())
	}
	return f, median(cpus), median(walls), nil
}

// refGenNs scales set-up CPU time to a reference host speed: setup_s is
// the set-up's CPU seconds times refGenNs over the generator's CPU per
// sample in the same run's fixed phase, i.e. seconds on a host where the
// generator costs 4 µs per sample. The same set-ups (seeds 1-5, same
// code) took 0.74 s of CPU in one quarter of an hour on the shared VM
// and 1.27 s in the next, and the generator's fixed work moved with
// them (2.9 µs and 4.7 µs per sample). CPU time, not wall time, because
// the hypervisor's steal moves wall time further still.
const refGenNs = 4000

// fixedWindows is how many windows the fixed-rate phase measures: three
// fifths of the run's budget, less the warm-up.
func (b *bench) fixedWindows() int {
	n := int((time.Duration(b.o.seconds)*time.Second*3/5 - fixedWarm) / fixedWindow)
	if n < 2 {
		n = 2
	}
	return n
}

// endToEnd is the -trace 0 run: set-up, the fixed-rate phase, then the
// sustained-rate search, all untraced.
func (b *bench) endToEnd(ctx context.Context) (*result, error) {
	f, setupS, setupWall, err := b.setupMedian(ctx, false)
	if err != nil {
		return nil, err
	}
	b.meta["setup_wall_s"] = setupWall
	b.meta["setup_cpu_s"] = setupS
	defer f.stop()
	fixed, err := b.measure(ctx, f, b.plan(f, "fixed", b.w.streams, fixedWarm, fixedWindow, b.fixedWindows()))
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}
	budget := time.Duration(b.o.seconds)*time.Second - time.Since(fixed.started)
	search, err := b.sustained(ctx, f, budget)
	if err != nil {
		return nil, err
	}
	res := fixed.res
	med := fixed.medians()
	if med.gen <= 0 || med.rel <= 0 {
		return nil, errors.New("the fixed-rate phase measured no generator CPU")
	}
	all := map[string]metric{
		"setup_s":           {setupS * refGenNs / med.gen, "s"},
		"latency_p50_ms":    {med.p50, "ms"},
		"latency_p99_ms":    {med.p99, "ms"},
		"cpu_ns_per_sample": {med.cpu, "ns"},
		"cpu_rel_generator": {med.rel, "ratio"},
		"rss_mb":            {float64(rss) / (1 << 20), "MB"},
		"miss_frac":         {fixed.missFrac(), "frac"},
	}
	out := &result{
		Correct:   fixed.gate.bad == 0 && search.bad == 0,
		Attempted: res.sent,
		Failed:    fixed.gate.failed(),
		Metrics:   map[string]metric{},
	}
	for _, n := range gatedMetrics {
		out.Metrics[n] = all[n]
	}
	// A search that found no passing rate leaves sustained_rate out: the
	// lowest failing rate it recorded is only an upper bound.
	if search.pass > 0 {
		all["sustained_rate"] = metric{search.pass, "1/s"}
	}
	// Above the search's own lag limit the generator, not the server,
	// sets part of the fixed phase's latency and misses.
	b.meta["harness_bound"] = med.lagP99 > ms(int64(maxLag))
	b.meta["generator_cpu_ns_per_sample"] = float64(fixed.genCPU) / float64(res.sent)
	b.meta["metrics"] = all
	b.meta["sustained_pass_rate"] = search.pass
	b.meta["sustained_fail_rate"] = search.fail
	b.meta["fixed_rate"] = res.plan.offered()
	b.meta["latency_samples"] = len(res.all.lat)
	b.meta["sustained_steps"] = search.steps
	b.meta["search_unaccounted_streams"] = search.unaccounted
	b.printEndToEnd(fixed, search, all)
	b.printMeta()
	for _, p := range append(fixed.gate.problems, search.problems...) {
		fmt.Fprintln(os.Stderr, "gate:", p)
	}
	if !out.Correct {
		return out, fmt.Errorf("correctness gate failed: %d of %d streams at the fixed rate, %d during the rate search (not counting conservation-only failures)",
			fixed.gate.bad, fixed.gate.streams, search.bad)
	}
	return out, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// searchResult is the outcome of the sustained-rate search.
type searchResult struct {
	// pass is the highest passing and fail the lowest failing rate the
	// search tried (0 = no such step). With no passing step the sustained
	// rate was not found and fail is only an upper bound on it; with no
	// failing step pass is only a lower bound.
	pass, fail float64
	steps      []stepReport
	// bad counts streams that failed the gate on anything but
	// conservation; unaccounted those that lost samples without shed
	// accounting. Both fail their step; only bad fails the run (see
	// sustained).
	bad, unaccounted int
	problems         []string
}

type stepReport struct {
	Rate    float64 `json:"rate"`
	P99ms   float64 `json:"p99_ms"`  // median over windows
	Miss    float64 `json:"miss"`    // whole step
	LagP99  float64 `json:"lag_p99"` // median over windows, ms
	Backlog float64 `json:"backlog"` // growth over the step, samples
	Lost    float64 `json:"lost"`    // share of samples sent that got no verdict
	Windows int     `json:"windows"` // windows passing
	Pass    bool    `json:"pass"`
}

// maxLag is how far behind its schedule the generator may send at p99
// before latency figures are taken to be harness-bound.
const maxLag = deadline / 2

// windowPasses applies the sustained-rate conditions to one window: p99
// within the latency limit, at most 0.1% of samples missed, and the
// generator within maxLag of its schedule at p99.
func windowPasses(w *window) bool {
	return quantile(w.lat, 0.99) <= int64(deadline) && w.miss() <= 0.001 &&
		quantile(w.lag, 0.99) <= int64(maxLag)
}

// sustained searches for the highest offered rate (in steps of streams
// per connection at the fixed 10 ms period) at which the conditions
// hold, the in-flight backlog does not grow over the step and the
// correctness gate passes. It starts at the fixed rate, which is pinned
// at about half the sustained rate: it grows the rate by half while
// steps pass and halves it while they fail, then bisects between the
// highest passing and the lowest failing step while the budget lasts.
// A search that ends before any step passes reports no rate, only the
// lowest rate it tried as an upper bound.
//
// Steps probe overload on purpose. Samples a step lost outright (no
// verdict, no shed accounting) count as misses against the step; the
// conservation failures they cause are reported but do not fail the run,
// because the serving tier is known to lose a stream's first sample when
// its reader falls behind while streams open. Any other gate failure in
// any step fails the run.
func (b *bench) sustained(ctx context.Context, f *fleet, budget time.Duration) (*searchResult, error) {
	sr := &searchResult{}
	stepDur := openLead + stepWarm + stepWindow*stepWindows + 200*time.Millisecond
	end := time.Now().Add(budget)
	try := func(streams int) (bool, error) {
		ph, err := b.measure(ctx, f, b.plan(f, fmt.Sprintf("s%d", len(sr.steps)), streams, stepWarm, stepWindow, stepWindows))
		if err != nil {
			return false, err
		}
		sr.bad += ph.gate.bad - ph.gate.unaccounted
		sr.unaccounted += ph.gate.unaccounted
		sr.problems = append(sr.problems, ph.gate.problems...)
		r := ph.res
		med := ph.medians()
		st := stepReport{
			Rate:    r.plan.offered(),
			P99ms:   med.p99,
			Miss:    ph.missFrac(),
			LagP99:  med.lagP99,
			Backlog: backlogGrowth(r),
		}
		for i := range r.windows {
			if windowPasses(&r.windows[i]) {
				st.Windows++
			}
		}
		// Samples lost outright count as misses too (miss_frac counts shed,
		// dropped and lost samples alike), wherever they fell.
		st.Lost = float64(ph.gate.lost) / float64(r.sent)
		st.Pass = st.Windows*2 > len(r.windows) && st.Lost <= 0.001 &&
			st.Backlog <= r.plan.offered()*deadline.Seconds() && ph.gate.bad == ph.gate.unaccounted
		sr.steps = append(sr.steps, st)
		return st.Pass, nil
	}
	// lo is the highest passing and hi the lowest failing streams per
	// connection so far (0 = none yet).
	lo, hi := 0, 0
	for s := b.w.streams; time.Now().Add(stepDur).Before(end); {
		ok, err := try(s)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = s
		} else {
			hi = s
		}
		switch {
		case hi == 0:
			s = max(s*3/2, s+1)
		case lo == 0:
			if s == 1 {
				return sr.finish(b.w.conns, lo, hi), nil
			}
			s = max(s/2, 1)
		default:
			if hi-lo <= 1 || float64(hi-lo) <= 0.02*float64(lo) {
				return sr.finish(b.w.conns, lo, hi), nil
			}
			s = (lo + hi) / 2
		}
	}
	return sr.finish(b.w.conns, lo, hi), nil
}

// finish records the highest passing and the lowest failing rate.
func (sr *searchResult) finish(conns, lo, hi int) *searchResult {
	sr.pass = float64(conns*lo) / samplePeriod.Seconds()
	sr.fail = float64(conns*hi) / samplePeriod.Seconds()
	return sr
}

// describe says what the search's result bounds, for the printed table.
func (sr *searchResult) describe() string {
	n := len(sr.steps)
	switch {
	case sr.pass == 0:
		return fmt.Sprintf("(no step passed: below %.0f/s, %d search steps)", sr.fail, n)
	case sr.fail == 0:
		return fmt.Sprintf("(no step failed: a lower bound, %d search steps)", n)
	default:
		return fmt.Sprintf("(%.0f/s failed, %d search steps)", sr.fail, n)
	}
}

// backlogGrowth is the mean in-flight backlog (samples sent minus
// verdicts received) over the last third of a phase minus that over the
// first third after warm-up.
func backlogGrowth(r *loadResult) float64 {
	skip := int(r.plan.warm / backlogEvery)
	pts := r.backlog
	if len(pts) <= skip+3 {
		return 0
	}
	pts = pts[skip:]
	third := len(pts) / 3
	mean := func(v []int64) float64 {
		var s float64
		for _, x := range v {
			s += float64(x)
		}
		return s / float64(len(v))
	}
	return mean(pts[len(pts)-third:]) - mean(pts[:third])
}

func (b *bench) printEndToEnd(fixed *phase, search *searchResult, all map[string]metric) {
	r := fixed.res
	fmt.Printf("workload %s  seed %d  fixed rate %.0f samples/s (%d conns x %d streams @ %s)\n",
		b.w.name, b.o.seed, r.plan.offered(), r.plan.conns, r.plan.streams, r.plan.period)
	fmt.Printf("  %-18s %14s  %s\n", "metric", "value", "unit (basis)")
	nw := len(r.windows)
	basis := map[string]string{
		"latency_p50_ms":    fmt.Sprintf("(median of %d windows, n=%d samples)", nw, len(r.all.lat)),
		"latency_p99_ms":    fmt.Sprintf("(median of %d windows, n=%d samples)", nw, len(r.all.lat)),
		"cpu_ns_per_sample": fmt.Sprintf("(median of %d windows, %d samples sent)", nw, r.sent),
		"cpu_rel_generator": fmt.Sprintf("(server CPU / generator CPU, median of %d windows)", nw),
		"sustained_rate":    search.describe(),
		"setup_s":           fmt.Sprintf("(CPU at the reference speed, median of %d set-ups; CPU %.4f s, wall %.4f s)", setups, b.meta["setup_cpu_s"], b.meta["setup_wall_s"]),
		"rss_mb":            fmt.Sprintf("(peak, summed over %d server processes)", b.procCount()),
		"miss_frac":         fmt.Sprintf("(n=%d samples, %d late or lost)", r.all.measured, r.all.measured-r.all.onTime),
	}
	gated := map[string]bool{}
	for _, n := range gatedMetrics {
		gated[n] = true
	}
	for _, n := range []string{"setup_s", "sustained_rate", "latency_p50_ms", "latency_p99_ms", "cpu_ns_per_sample", "cpu_rel_generator", "rss_mb", "miss_frac"} {
		m, ok := all[n]
		mark := " "
		if gated[n] {
			mark = "*"
		}
		if !ok {
			fmt.Printf(" %s%-18s %14s  %s\n", mark, n, "not found", basis[n])
			continue
		}
		fmt.Printf(" %s%-18s %14.4f  %s %s\n", mark, n, m.Value, m.Unit, basis[n])
	}
	fmt.Println("  (* = in the result line and BENCHMARK.json)")
	fmt.Printf("  p99 by window (ms):")
	for _, w := range r.windows {
		fmt.Printf(" %.2f", ms(quantile(w.lat, 0.99)))
	}
	fmt.Printf("\n  server cpu by window (ns/sample):")
	for i, w := range r.windows {
		if i < len(fixed.winCPU) && w.measured > 0 {
			fmt.Printf(" %.0f", float64(fixed.winCPU[i])/float64(w.measured))
		}
	}
	fmt.Println()
	med := fixed.medians()
	fmt.Printf("  generator: %.0f ns CPU per sample, lag p99 %.3f ms (median of windows %.3f ms)\n",
		float64(fixed.genCPU)/float64(r.sent), ms(quantile(r.all.lag, 0.99)), med.lagP99)
	if med.lagP99 > ms(int64(maxLag)) {
		fmt.Printf("  HARNESS-BOUND: generator lag p99 over the %s limit; latency and miss_frac include generator lag\n", maxLag)
	}
	fmt.Printf("  gate: %d streams checked, %d failed, %d samples without a verdict; rate search: %d streams failed, %d of them conservation only\n",
		fixed.gate.streams, fixed.gate.bad, fixed.gate.lost, search.bad+search.unaccounted, search.unaccounted)
	for _, st := range search.steps {
		fmt.Printf("  search %8.0f/s  p99 %7.3f ms  miss %.5f  lost %.5f  lag p99 %6.3f ms  backlog %+6.0f  windows %d/%d  pass=%v\n",
			st.Rate, st.P99ms, st.Miss, st.Lost, st.LagP99, st.Backlog, st.Windows, stepWindows, st.Pass)
	}
}

// procCount is the number of server processes the workload runs.
func (b *bench) procCount() int {
	if b.w.gateway {
		return 3
	}
	return 1
}

// printMeta writes the machine and set-up record as one JSON line.
func (b *bench) printMeta() {
	line, err := json.Marshal(b.meta)
	if err != nil {
		return
	}
	fmt.Printf("meta %s\n", line)
}
