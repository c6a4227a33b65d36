// Package shadow scores a candidate model side-by-side with the live one
// so an operator can measure how a new registry version would behave on
// real traffic before promoting it. The live path stays untouched: the
// serving tier hands each scored sample (features plus the primary
// verdict) to a Shadow, which copies it into a bounded queue and returns
// immediately; a drain goroutine re-scores the sample with the candidate
// off the hot path and accumulates divergence statistics. When the queue
// is full the sample is dropped and counted — shadow scoring sheds load
// before it can ever back-pressure live detection.
//
// One Divergence accumulator serves every comparison: the streaming
// drain, offline Evaluate (cmd/smartctl diff) and the sample-log
// backtest, the latter two fanned out through Replay on the shared
// worker pool.
package shadow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"twosmart/internal/core"
	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
)

// DefaultQueue is the bounded queue depth when Config.Queue is zero.
const DefaultQueue = 1024

// Config tunes a streaming Shadow.
type Config struct {
	// Queue bounds the copy-in queue; offers beyond it are dropped and
	// counted, never blocked on. Defaults to DefaultQueue.
	Queue int
	// Version is the candidate's registry version, echoed in reports.
	Version int
	// Telemetry receives shadow_* instruments; nil disables.
	Telemetry *telemetry.Registry
}

// Primary is the live path's decision for one sample, the baseline the
// candidate is compared against.
type Primary struct {
	Malware bool
	Class   string  // primary's predicted class name, keys per-class stats
	Score   float64 // primary's malware ranking score
}

type observation struct {
	features []float64 // owned copy
	primary  Primary
}

// ClassStat is the divergence of one primary-predicted class.
type ClassStat struct {
	Observed     uint64  `json:"observed"`
	Disagreed    uint64  `json:"disagreed"`
	MeanAbsDelta float64 `json:"mean_abs_delta"`
}

// Report summarises a shadow run. VerdictDivergence is the fraction of
// scored samples where the candidate's malware decision differed from
// the live model's.
type Report struct {
	CandidateVersion  int                  `json:"candidate_version,omitempty"`
	Scored            uint64               `json:"scored"`
	Dropped           uint64               `json:"dropped"`
	Errors            uint64               `json:"errors"`
	Disagreements     uint64               `json:"disagreements"`
	VerdictDivergence float64              `json:"verdict_divergence"`
	MeanAbsScoreDelta float64              `json:"mean_abs_score_delta"`
	MaxScoreDelta     float64              `json:"max_score_delta"`
	PerClass          map[string]ClassStat `json:"per_class,omitempty"`
}

// Divergence accumulates how a candidate's decisions differ from a
// baseline's, sample by sample. The zero value is ready to use. A
// Divergence is not safe for concurrent use: replay fans out one per
// worker and merges them, the streaming Shadow guards its own.
type Divergence struct {
	scored        uint64
	errors        uint64
	disagreements uint64
	sumAbsDelta   float64
	maxDelta      float64
	perClass      map[string]*classAcc
}

type classAcc struct {
	observed    uint64
	disagreed   uint64
	sumAbsDelta float64
}

func (d *Divergence) class(name string) *classAcc {
	ca := d.perClass[name]
	if ca == nil {
		if d.perClass == nil {
			d.perClass = make(map[string]*classAcc)
		}
		ca = &classAcc{}
		d.perClass[name] = ca
	}
	return ca
}

// Observe scores one sample with the candidate — one fused detector
// evaluation — and folds its comparison with the baseline's decision p
// into the accumulator. A sample the candidate cannot score counts as an
// error.
func (d *Divergence) Observe(cand *core.CompiledDetector, features []float64, p Primary) {
	v, score, err := cand.DetectScored(features)
	if err != nil {
		d.errors++
		return
	}
	d.scored++
	delta := math.Abs(score - p.Score)
	d.sumAbsDelta += delta
	if delta > d.maxDelta {
		d.maxDelta = delta
	}
	ca := d.class(p.Class)
	ca.observed++
	ca.sumAbsDelta += delta
	if v.Malware != p.Malware {
		d.disagreements++
		ca.disagreed++
	}
}

// Merge folds another accumulator's counts into d.
func (d *Divergence) Merge(o *Divergence) {
	d.scored += o.scored
	d.errors += o.errors
	d.disagreements += o.disagreements
	d.sumAbsDelta += o.sumAbsDelta
	if o.maxDelta > d.maxDelta {
		d.maxDelta = o.maxDelta
	}
	for name, ca := range o.perClass {
		dst := d.class(name)
		dst.observed += ca.observed
		dst.disagreed += ca.disagreed
		dst.sumAbsDelta += ca.sumAbsDelta
	}
}

// Report summarises the accumulated divergence for the candidate's
// registry version, with dropped samples counted alongside.
func (d *Divergence) Report(version int, dropped uint64) Report {
	rep := Report{
		CandidateVersion: version,
		Scored:           d.scored,
		Dropped:          dropped,
		Errors:           d.errors,
		Disagreements:    d.disagreements,
		MaxScoreDelta:    d.maxDelta,
	}
	if d.scored > 0 {
		rep.VerdictDivergence = float64(d.disagreements) / float64(d.scored)
		rep.MeanAbsScoreDelta = d.sumAbsDelta / float64(d.scored)
	}
	if len(d.perClass) > 0 {
		rep.PerClass = make(map[string]ClassStat, len(d.perClass))
		for name, ca := range d.perClass {
			cs := ClassStat{Observed: ca.observed, Disagreed: ca.disagreed}
			if ca.observed > 0 {
				cs.MeanAbsDelta = ca.sumAbsDelta / float64(ca.observed)
			}
			rep.PerClass[name] = cs
		}
	}
	return rep
}

// Sample yields replay sample i and the baseline's decision on it.
type Sample func(i int) ([]float64, Primary, error)

// Replay scores n samples with the candidate, fanned out in contiguous
// chunks, one per worker (opts.Workers <= 0 takes parallel's default).
// Each worker compiles its own candidate, since compiled detectors are
// single-goroutine by contract, and reads its chunk through its own
// Sample from newSample, so a Sample may own a compiled baseline too.
// It fails when the candidate scored none of the samples.
func Replay(ctx context.Context, candidate *core.Detector, n int, opts parallel.Options, newSample func() Sample) (*Divergence, error) {
	workers := opts.WorkerCount(n)
	chunk := (n + workers - 1) / workers
	parts, err := parallel.Map(ctx, workers, opts, func(_ context.Context, w int) (*Divergence, error) {
		cand, sample := candidate.Compile(), newSample()
		d := &Divergence{}
		for i := w * chunk; i < min((w+1)*chunk, n); i++ {
			features, p, err := sample(i)
			if err != nil {
				return nil, err
			}
			d.Observe(cand, features, p)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	total := &Divergence{}
	for _, d := range parts {
		total.Merge(d)
	}
	if total.errors > 0 && total.scored == 0 {
		return nil, fmt.Errorf("shadow: candidate scored none of %d samples (feature width mismatch?)", n)
	}
	return total, nil
}

// Shadow re-scores live traffic with a candidate model off the hot path.
// Offer is safe for concurrent use; Close drains and stops the scorer.
type Shadow struct {
	cand    *core.CompiledDetector
	version int

	queue chan observation
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu      sync.Mutex
	div     Divergence
	dropped uint64

	observedC telemetry.Counter
	droppedC  telemetry.Counter
	disagreeC telemetry.Counter
	divergeG  telemetry.Gauge
}

// New compiles the candidate and starts the drain goroutine.
func New(candidate *core.Detector, cfg Config) (*Shadow, error) {
	if candidate == nil {
		return nil, errors.New("shadow: nil candidate detector")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	s := &Shadow{
		cand:      candidate.Compile(),
		version:   cfg.Version,
		queue:     make(chan observation, cfg.Queue),
		stop:      make(chan struct{}),
		observedC: cfg.Telemetry.Counter("shadow_observed_total"),
		droppedC:  cfg.Telemetry.Counter("shadow_dropped_total"),
		disagreeC: cfg.Telemetry.Counter("shadow_disagreements_total"),
		divergeG:  cfg.Telemetry.Gauge("shadow_divergence"),
	}
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// NumFeatures returns the candidate's feature width.
func (s *Shadow) NumFeatures() int { return s.cand.NumFeatures() }

// Version returns the candidate's registry version.
func (s *Shadow) Version() int { return s.version }

// Offer hands one already-scored live sample to the shadow. The feature
// vector is copied, so the caller may reuse its buffer. It never blocks:
// when the queue is full (or the shadow is closed) the sample is dropped,
// counted, and false is returned.
func (s *Shadow) Offer(features []float64, primary Primary) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	o := observation{features: append([]float64(nil), features...), primary: primary}
	select {
	case s.queue <- o:
		return true
	default:
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		s.droppedC.Inc()
		return false
	}
}

func (s *Shadow) drain() {
	defer s.wg.Done()
	for {
		select {
		case o := <-s.queue:
			s.score(o)
		case <-s.stop:
			for {
				select {
				case o := <-s.queue:
					s.score(o)
				default:
					return
				}
			}
		}
	}
}

func (s *Shadow) score(o observation) {
	s.mu.Lock()
	before := s.div.disagreements
	s.div.Observe(s.cand, o.features, o.primary)
	disagreed := s.div.disagreements - before
	var div float64
	if s.div.scored > 0 {
		div = float64(s.div.disagreements) / float64(s.div.scored)
	}
	s.mu.Unlock()
	s.observedC.Inc()
	if disagreed > 0 {
		s.disagreeC.Inc()
	}
	s.divergeG.Set(div)
}

// Report returns a snapshot of the divergence accumulated so far.
func (s *Shadow) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.div.Report(s.version, s.dropped)
}

// Close stops accepting samples, drains what is already queued, waits for
// the scorer to finish and returns the final report. Safe to call more
// than once.
func (s *Shadow) Close() Report {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.Report()
}

// Evaluate replays a sample set under both models at once and reports
// the candidate's divergence from the baseline, fanning the work out
// through Replay. Each worker also compiles its own baseline, which
// scores each sample with one fused evaluation.
func Evaluate(ctx context.Context, baseline, candidate *core.Detector, samples [][]float64, opts parallel.Options) (Report, error) {
	if baseline == nil || candidate == nil {
		return Report{}, errors.New("shadow: nil detector")
	}
	if len(samples) == 0 {
		return Report{}, errors.New("shadow: no samples to evaluate")
	}
	d, err := Replay(ctx, candidate, len(samples), opts, func() Sample {
		base := baseline.Compile()
		return func(i int) ([]float64, Primary, error) {
			v, score, err := base.DetectScored(samples[i])
			if err != nil {
				return nil, Primary{}, fmt.Errorf("shadow: baseline: %w", err)
			}
			return samples[i], Primary{Malware: v.Malware, Class: v.PredictedClass.String(), Score: score}, nil
		}
	})
	if err != nil {
		return Report{}, err
	}
	return d.Report(0, 0), nil
}
