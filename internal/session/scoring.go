package session

import (
	"fmt"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
)

// Generation is one servable model generation as the scoring handler
// binds it: the trained detector, its registry version, the optional
// drift monitor that observes every sample scored under it, and the
// optional stage-0 cascade. The Source callback returns the generation
// active *right now*; each stream captures the generation at open time
// (the hot-swap epoch model from DESIGN §11) and keeps it for life.
type Generation struct {
	Detector *core.Detector
	Version  int
	Drift    *drift.Monitor
	// Cascade, when non-nil, is the compiled stage-0 anomaly envelope:
	// samples scoring <= CascadeThreshold short-circuit with a benign
	// verdict (Stage = core.StageShortCircuit) and never reach the full
	// detector. Must cover the detector's exact feature width — the
	// caller's invariant (serve validates at model bind/swap time).
	Cascade *anomaly.Compiled
	// CascadeThreshold is the effective short-circuit threshold for this
	// generation (the envelope's calibrated default or an operator
	// override, already resolved by the caller).
	CascadeThreshold float64
}

// Emitter receives the scoring handler's output. Methods are called on
// the engine's worker goroutine, one at a time and in order within each
// stream, so per-connection emitter state needs no lock.
type Emitter interface {
	// Verdicts delivers one scored chunk for stream id, bound to model
	// epoch version: parallel slices where verdicts[i]/scores[i]/events[i]
	// belong to the sample with client sequence seqs[i] received at
	// ats[i]. The slices are engine-owned and valid only during the call.
	Verdicts(id uint32, version int, seqs []uint32, ats []time.Time,
		verdicts []core.Verdict, scores []float64, events []monitor.Event) error
	// Summary delivers the closing account of a stream: the monitor's
	// session summary plus how many of the stream's samples the ingress
	// ring shed.
	Summary(id uint32, version int, sum monitor.Summary, shed uint64) error
	// Flush pushes buffered output to the transport; called once per
	// engine round (RoundEnd).
	Flush() error
}

// TapChunk is one scored chunk as handed to ScoringConfig.Tap: the
// stream's identity and model epoch plus parallel slices where
// Samples[i]/Verdicts[i]/Scores[i]/Events[i] belong to the sample
// received at Ats[i]. All slices are engine-owned and valid only during
// the Tap call — consumers copy what they keep. Taps run on the engine's
// worker goroutine and never overlap, so a tap may reuse per-connection
// scratch space across calls.
type TapChunk struct {
	App      string
	Stream   uint32
	Version  int
	Ats      []time.Time
	Samples  [][]float64
	Verdicts []core.Verdict
	Scores   []float64
	Events   []monitor.Event
}

// ScoringConfig configures a Scoring handler (one per connection).
type ScoringConfig struct {
	// Source returns the model generation new streams should bind.
	// Required. Called once per stream open, on the worker goroutine.
	Source func() Generation
	// Emit receives verdicts, summaries and flushes. Required.
	Emit Emitter
	// Monitor tunes the per-stream smoothing and alarm hysteresis. It is
	// validated at each stream open; its Telemetry registry also carries
	// the monitor_active_apps gauge.
	Monitor monitor.Config
	// MaxBatch caps how many samples one stream scores per fused
	// DetectScoredBatch call inside a round (default 512).
	MaxBatch int
	// Tap, when non-nil, observes every scored chunk after its verdicts
	// are computed — the shadow-scoring and sample-log hook. The chunk's
	// slices are engine-owned and valid only during the call.
	Tap func(TapChunk)
	// Tracer, when non-nil, samples scored chunks into end-to-end trace
	// records with per-hop attribution (gateway → ring wait → assembly →
	// stage 0 → score → emit). The unsampled path costs one atomic add
	// per chunk.
	Tracer *trace.Tracer
	// Latency, when non-nil, receives a histogram exemplar (the traced
	// sample's end-to-end seconds keyed by trace ID) for every sampled
	// trace. The serve transport passes its verdict-latency histogram so
	// /metrics p99s link back to /debug/traces records.
	Latency telemetry.Histogram
	// Telemetry, when non-nil, receives the cascade_* metric families
	// (short-circuit / pass-through counts, per-stage nanos and sample
	// counts, plus per-app splits). Only touched on streams whose
	// generation carries a cascade, so a no-cascade server exposes no
	// cascade families at all.
	Telemetry *telemetry.Registry
	// Hook, when non-nil (tests only), runs before every per-stream
	// scoring round; a slow hook makes load-shedding deterministic.
	Hook func()
}

// Scoring is the shard-role Handler: it captures each stream's model
// epoch at open time (compiling that generation's detector and building
// the stream's own monitor around it), and scores every micro-batch
// through the fused allocation-free path — one evaluation per sample for
// both its verdict and its smoothed-alarm update.
type Scoring struct {
	cfg    ScoringConfig
	active telemetry.Gauge // monitor_active_apps: streams open right now
}

// NewScoring validates the configuration and builds the handler.
func NewScoring(cfg ScoringConfig) (*Scoring, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("session: nil generation source")
	}
	if cfg.Emit == nil {
		return nil, fmt.Errorf("session: nil emitter")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 512
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("session: max batch %d below 1", cfg.MaxBatch)
	}
	if cfg.Latency == nil {
		cfg.Latency = telemetry.NopHistogram
	}
	return &Scoring{cfg: cfg, active: cfg.Monitor.Telemetry.Gauge("monitor_active_apps")}, nil
}

// OpenStream captures the stream's model epoch: it compiles the
// generation that is active right now and builds the stream's monitor
// around that same instance. A swap after this point only affects
// streams opened later.
func (s *Scoring) OpenStream(id uint32, app string) (Stream, error) {
	g := s.cfg.Source()
	det := g.Detector.Compile()
	mon, err := monitor.New(det, s.cfg.Monitor)
	if err != nil {
		return nil, err
	}
	st := &scoredStream{s: s, id: id, app: app, det: det, mon: mon, sum: monitor.Summary{App: app},
		version: g.Version, drft: g.Drift,
		stage0: NewStage0(g.Cascade, g.CascadeThreshold, s.cfg.Telemetry, app)}
	if st.stage0 != nil {
		st.stage1Nanos = s.cfg.Telemetry.Counter("cascade_stage1_nanos_total")
		st.stage1Samples = s.cfg.Telemetry.Counter("cascade_stage1_samples_total")
	}
	s.active.Add(1)
	return st, nil
}

// RoundEnd flushes the emitter's buffered output.
func (s *Scoring) RoundEnd() error { return s.cfg.Emit.Flush() }

// scoredStream is one (connection, app) stream: its compiled detector,
// the monitor that smooths its scores, its session summary and the
// reusable scoring arenas. A stream is only ever touched by its engine's
// worker goroutine, so none of it needs a lock.
//
// det, version and drft are the stream's model epoch, captured from the
// active generation in OpenStream. A hot swap that lands mid-stream does
// not change them: samples already queued and samples still arriving on
// this stream score on the epoch's detector, and the Summary reports the
// epoch's version.
type scoredStream struct {
	s       *Scoring
	id      uint32
	app     string
	det     *core.CompiledDetector
	mon     *monitor.Monitor
	sum     monitor.Summary
	version int
	drft    *drift.Monitor

	// stage-0 cascade, captured with the epoch (nil = disabled), and
	// the full-detector cost counters of the samples it passes on.
	stage0        *Stage0
	stage1Nanos   telemetry.Counter
	stage1Samples telemetry.Counter

	// reusable scoring arenas, grown to the largest micro-batch seen
	verdicts []core.Verdict
	scores   []float64
	events   []monitor.Event

	// the verdict/score slots the full detector writes for a cascade
	// chunk's pass-through samples before the scatter back into the
	// chunk arenas.
	passVerdicts []core.Verdict
	passScores   []float64
}

// Process scores one pending micro-batch in MaxBatch chunks through the
// fused compiled path and emits the verdict chunks.
func (st *scoredStream) Process(b Batch) error {
	s := st.s
	if s.cfg.Hook != nil {
		s.cfg.Hook()
	}
	pending := b.Len()
	if cap(st.verdicts) < pending {
		st.verdicts = make([]core.Verdict, pending)
		st.scores = make([]float64, pending)
		st.events = make([]monitor.Event, pending)
	}
	for off := 0; off < pending; off += s.cfg.MaxBatch {
		end := off + s.cfg.MaxBatch
		if end > pending {
			end = pending
		}
		n := end - off
		// One sampling decision per chunk: a single atomic add when not
		// chosen, three time.Now calls bracketing score and emit when it is.
		// A cascade chunk is always bracketed — the per-stage cost model is
		// the feature — by the stage-0 filter's two clock reads and one
		// closing the stage-1 pass, amortized over the chunk.
		traceIdx, traceID, traced := s.cfg.Tracer.SampleBatch(n)
		var stage0Start, stage0End, scoreStart time.Time
		verdicts := st.verdicts[:n]
		scores := st.scores[:n]
		events := st.events[:n]
		if st.stage0 != nil {
			chunk := Batch{Samples: b.Samples[off:end], Seqs: b.Seqs[off:end], Ats: b.Ats[off:end], DrainedAt: b.DrainedAt}
			if err := st.cascadeChunk(verdicts, scores, chunk); err != nil {
				return err
			}
			stage0Start, stage0End, scoreStart = st.stage0.Start, st.stage0.End, st.stage0.End
		} else {
			if traced {
				scoreStart = time.Now()
				stage0Start, stage0End = scoreStart, scoreStart
			}
			if err := st.det.DetectScoredBatch(verdicts, scores, b.Samples[off:end]); err != nil {
				return err
			}
		}
		if err := st.mon.ObserveScoredBatch(events, scores); err != nil {
			return err
		}
		for _, ev := range events {
			st.sum.Record(ev)
		}
		if st.drft != nil {
			if err := st.drft.ObserveBatch(b.Samples[off:end]); err != nil {
				return err
			}
		}
		if s.cfg.Tap != nil {
			s.cfg.Tap(TapChunk{
				App:      st.app,
				Stream:   st.id,
				Version:  st.version,
				Ats:      b.Ats[off:end],
				Samples:  b.Samples[off:end],
				Verdicts: verdicts,
				Scores:   scores,
				Events:   events,
			})
		}
		var scoreEnd time.Time
		if traced {
			scoreEnd = time.Now()
		}
		if err := s.cfg.Emit.Verdicts(st.id, st.version, b.Seqs[off:end], b.Ats[off:end], verdicts, scores, events); err != nil {
			return err
		}
		if traced {
			i := off + traceIdx
			rec := trace.Record{TraceID: traceID, Tier: trace.TierShard, App: st.app, Stream: st.id, Seq: b.Seqs[i]}
			rec.Capture(trace.Instants{
				Origin: b.Origins[i], At: b.Ats[i], Drained: b.DrainedAt,
				Stage0Start: stage0Start, Stage0End: stage0End,
				ScoreStart: scoreStart, ScoreEnd: scoreEnd, EmitEnd: time.Now(),
			})
			s.cfg.Tracer.Add(rec)
			s.cfg.Latency.Exemplar(float64(rec.TotalNanos)/1e9, traceID)
		}
	}
	return nil
}

// cascadeChunk runs the stage-0 filter over one chunk, scores the
// samples it passed on through the fused full-detector path, and
// scatters the results back in place. Short-circuited samples get the
// benign short-circuit verdict and malware score 0: the envelope decided
// "clear benign", and the stream's EWMA smoothing should see exactly
// that evidence.
func (st *scoredStream) cascadeChunk(verdicts []core.Verdict, scores []float64, chunk Batch) error {
	mask, pass := st.stage0.Split(chunk)
	p := pass.Len()
	if cap(st.passVerdicts) < p {
		st.passVerdicts = make([]core.Verdict, chunk.Len())
		st.passScores = make([]float64, chunk.Len())
	}
	pv := st.passVerdicts[:p]
	ps := st.passScores[:p]
	if err := st.det.DetectScoredBatch(pv, ps, pass.Samples); err != nil {
		return err
	}
	j := 0
	for i, short := range mask {
		if short {
			verdicts[i], scores[i] = core.ShortCircuitVerdict, 0
			continue
		}
		verdicts[i], scores[i] = pv[j], ps[j]
		j++
	}
	if p > 0 {
		st.stage1Nanos.Add(uint64(max(time.Since(st.stage0.End).Nanoseconds(), 0)))
		st.stage1Samples.Add(uint64(p))
	}
	return nil
}

// Close emits the stream's session summary.
func (st *scoredStream) Close(shed uint64) error {
	st.s.active.Add(-1)
	return st.s.cfg.Emit.Summary(st.id, st.version, st.sum, shed)
}
