package samplelog

import (
	"context"
	"errors"
	"fmt"
	"math"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/parallel"
	"twosmart/internal/shadow"
	"twosmart/internal/workload"
)

// BacktestOptions narrows and parallelizes a backtest run.
type BacktestOptions struct {
	// Version is the candidate's registry version, echoed in the report.
	Version int
	// Workers bounds the replay fan-out (default: parallel's default).
	Workers int
	// FromNanos/ToNanos bound the replay window (inclusive); zero means
	// unbounded on that side.
	FromNanos int64
	ToNanos   int64
	// App restricts the replay to one application's records; empty means
	// all apps.
	App string
	// Envelope, when non-nil, additionally replays every record through
	// the stage-0 cascade envelope and reports what the cascade would have
	// done to the recorded traffic — including the safety number: recorded
	// malware verdicts the envelope would have short-circuited as clear
	// benign. The envelope's width must match the candidate's.
	Envelope *anomaly.Envelope
	// CascadeThreshold is the short-circuit knob for the cascade replay:
	// 0 uses the envelope's calibrated threshold, > 0 overrides it, < 0
	// skips the cascade replay even with an Envelope set.
	CascadeThreshold float64
}

// CascadeBacktest is the cascade section of a BacktestResult: what the
// stage-0 envelope would have decided about the recorded, scored traffic.
type CascadeBacktest struct {
	// Threshold is the effective short-circuit threshold replayed.
	Threshold float64 `json:"threshold"`
	// ShortCircuited counts replayed records the envelope would have
	// answered as clear benign without reaching the full detector.
	ShortCircuited uint64 `json:"short_circuited"`
	// PassedOn counts replayed records the envelope would have forwarded.
	PassedOn uint64 `json:"passed_on"`
	// ShortFraction is ShortCircuited over the replayed total.
	ShortFraction float64 `json:"short_fraction"`
	// MalwareShortCircuited is the safety number: recorded malware
	// verdicts the cascade would have short-circuited. Anything above zero
	// means the envelope would have suppressed a detection the fleet
	// actually made.
	MalwareShortCircuited uint64 `json:"malware_short_circuited"`
}

// BacktestResult pairs the divergence report with the log-scan context a
// CI assertion or operator needs to trust it: how much of the log was
// actually replayed, and why the rest was not.
type BacktestResult struct {
	// Report is the candidate-vs-recorded divergence in the same shape
	// shadow scoring and smartctl diff emit.
	Report shadow.Report `json:"report"`
	// Log is the integrity scan of the whole directory.
	Log VerifyReport `json:"log"`
	// Replayed counts records actually scored against the candidate.
	Replayed int `json:"replayed"`
	// SkippedUnscored counts records that carried no recorded verdict
	// (gateway-tier records log features before scoring happens).
	SkippedUnscored int `json:"skipped_unscored"`
	// SkippedFiltered counts scored records excluded by the window or
	// app filter.
	SkippedFiltered int `json:"skipped_filtered"`
	// Cascade is the stage-0 replay section, present only when
	// BacktestOptions carried an envelope (and the threshold knob did not
	// disable it).
	Cascade *CascadeBacktest `json:"cascade,omitempty"`
}

// backtest divergence accumulator; shadow keeps its own unexported, so
// the full-speed replay path carries a parallel-mergeable twin and emits
// the shared shadow.Report shape at the end.
type btStats struct {
	scored        uint64
	errors        uint64
	disagreements uint64
	sumAbsDelta   float64
	maxDelta      float64
	perClass      map[string]*btClass

	// cascade replay accounting (all zero when no envelope rides along)
	cascadeShort  uint64
	cascadePass   uint64
	malwareShort  uint64
	cascadeErrors uint64 // records whose width the envelope could not score
}

type btClass struct {
	observed    uint64
	disagreed   uint64
	sumAbsDelta float64
}

func (st *btStats) observe(cand *core.CompiledDetector, rec Record) {
	v, err := cand.Detect(rec.Features)
	if err != nil {
		st.errors++
		return
	}
	score, err := cand.MalwareScore(rec.Features)
	if err != nil {
		st.errors++
		return
	}
	st.scored++
	delta := math.Abs(score - rec.Score)
	st.sumAbsDelta += delta
	if delta > st.maxDelta {
		st.maxDelta = delta
	}
	name := workload.Class(rec.Class).String()
	ca := st.perClass[name]
	if ca == nil {
		ca = &btClass{}
		st.perClass[name] = ca
	}
	ca.observed++
	ca.sumAbsDelta += delta
	if v.Malware != rec.Malware() {
		st.disagreements++
		ca.disagreed++
	}
}

// observeCascade replays one record through the stage-0 envelope and
// accounts what the cascade would have done to it.
func (st *btStats) observeCascade(env *anomaly.Compiled, threshold float64, rec Record) {
	if len(rec.Features) != env.NumFeatures() {
		st.cascadeErrors++
		return
	}
	if env.Score(rec.Features) <= threshold {
		st.cascadeShort++
		if rec.Malware() {
			st.malwareShort++
		}
	} else {
		st.cascadePass++
	}
}

func (st *btStats) merge(o btStats) {
	st.scored += o.scored
	st.errors += o.errors
	st.disagreements += o.disagreements
	st.sumAbsDelta += o.sumAbsDelta
	if o.maxDelta > st.maxDelta {
		st.maxDelta = o.maxDelta
	}
	for name, ca := range o.perClass {
		dst := st.perClass[name]
		if dst == nil {
			dst = &btClass{}
			st.perClass[name] = dst
		}
		dst.observed += ca.observed
		dst.disagreed += ca.disagreed
		dst.sumAbsDelta += ca.sumAbsDelta
	}
	st.cascadeShort += o.cascadeShort
	st.cascadePass += o.cascadePass
	st.malwareShort += o.malwareShort
	st.cascadeErrors += o.cascadeErrors
}

func (st *btStats) report(version int) shadow.Report {
	rep := shadow.Report{
		CandidateVersion: version,
		Scored:           st.scored,
		Errors:           st.errors,
		Disagreements:    st.disagreements,
		MaxScoreDelta:    st.maxDelta,
	}
	if st.scored > 0 {
		rep.VerdictDivergence = float64(st.disagreements) / float64(st.scored)
		rep.MeanAbsScoreDelta = st.sumAbsDelta / float64(st.scored)
	}
	if len(st.perClass) > 0 {
		rep.PerClass = make(map[string]shadow.ClassStat, len(st.perClass))
		for name, ca := range st.perClass {
			cs := shadow.ClassStat{Observed: ca.observed, Disagreed: ca.disagreed}
			if ca.observed > 0 {
				cs.MeanAbsDelta = ca.sumAbsDelta / float64(ca.observed)
			}
			rep.PerClass[name] = cs
		}
	}
	return rep
}

// Backtest replays a recorded log window through a candidate detector at
// full speed and reports divergence against the verdicts the fleet
// actually served. Records without a recorded verdict (gateway-tier
// captures) are skipped — there is nothing to diverge from. Each worker
// compiles its own candidate (compiled detectors are single-goroutine by
// contract) and scores a contiguous chunk; the torn/corrupt accounting
// of the underlying scan rides along in the result.
func Backtest(ctx context.Context, dir string, candidate *core.Detector, opts BacktestOptions) (BacktestResult, error) {
	var res BacktestResult
	if candidate == nil {
		return res, errors.New("samplelog: nil candidate detector")
	}
	env, cascadeThreshold, err := anomaly.Resolve(opts.Envelope, opts.CascadeThreshold)
	if err != nil {
		return res, fmt.Errorf("samplelog: cascade envelope: %w", err)
	}
	if env != nil && env.NumFeatures() != candidate.NumFeatures() {
		return res, fmt.Errorf("samplelog: cascade envelope has %d features, candidate wants %d",
			env.NumFeatures(), candidate.NumFeatures())
	}
	var records []Record
	rep, err := ReadDir(dir, func(r Record) error {
		if !r.Scored() {
			res.SkippedUnscored++
			return nil
		}
		if (opts.FromNanos != 0 && r.Nanos < opts.FromNanos) ||
			(opts.ToNanos != 0 && r.Nanos > opts.ToNanos) ||
			(opts.App != "" && r.App != opts.App) {
			res.SkippedFiltered++
			return nil
		}
		records = append(records, r)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Log = rep
	res.Replayed = len(records)
	if len(records) == 0 {
		return res, fmt.Errorf("samplelog: no scored records to replay in %s (records=%d, unscored=%d, filtered=%d)",
			dir, rep.Records, res.SkippedUnscored, res.SkippedFiltered)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(records) {
		workers = len(records)
	}
	chunk := (len(records) + workers - 1) / workers
	parts, err := parallel.Map(ctx, workers, parallel.Options{Workers: workers}, func(_ context.Context, w int) (btStats, error) {
		lo := w * chunk
		hi := min(lo+chunk, len(records))
		cand := candidate.Compile()
		st := btStats{perClass: make(map[string]*btClass)}
		for _, rec := range records[lo:hi] {
			st.observe(cand, rec)
			if env != nil {
				st.observeCascade(env, cascadeThreshold, rec)
			}
		}
		return st, nil
	})
	if err != nil {
		return res, err
	}
	total := btStats{perClass: make(map[string]*btClass)}
	for _, st := range parts {
		total.merge(st)
	}
	if total.errors > 0 && total.scored == 0 {
		return res, fmt.Errorf("samplelog: candidate scored none of %d records (feature width mismatch?)", len(records))
	}
	res.Report = total.report(opts.Version)
	if env != nil {
		cb := &CascadeBacktest{
			Threshold:             cascadeThreshold,
			ShortCircuited:        total.cascadeShort,
			PassedOn:              total.cascadePass,
			MalwareShortCircuited: total.malwareShort,
		}
		if replayed := total.cascadeShort + total.cascadePass; replayed > 0 {
			cb.ShortFraction = float64(total.cascadeShort) / float64(replayed)
		}
		res.Cascade = cb
	}
	return res, nil
}
