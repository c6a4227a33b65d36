package samplelog

import (
	"context"
	"errors"
	"fmt"

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
	// Workers bounds the replay fan-out; <= 0 uses one worker per CPU.
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

// Backtest replays a recorded log window through a candidate detector at
// full speed and reports divergence against the verdicts the fleet
// actually served. Records without a recorded verdict (gateway-tier
// captures) are skipped — there is nothing to diverge from. Scoring fans
// out through shadow.Replay with the recorded verdicts as the baseline;
// the torn/corrupt accounting of the underlying scan rides along in the
// result.
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

	div, err := shadow.Replay(ctx, candidate, len(records), parallel.Options{Workers: opts.Workers}, func() shadow.Sample {
		return func(i int) ([]float64, shadow.Primary, error) {
			r := records[i]
			return r.Features, shadow.Primary{
				Malware: r.Malware(),
				Class:   workload.Class(r.Class).String(),
				Score:   r.Score,
			}, nil
		}
	})
	if err != nil {
		return res, fmt.Errorf("samplelog: %w", err)
	}
	res.Report = div.Report(opts.Version, 0)
	if env != nil {
		res.Cascade = replayCascade(env, cascadeThreshold, records)
	}
	return res, nil
}

// replayCascade replays every record through the stage-0 envelope and
// accounts what the cascade would have done to it. Records the envelope
// cannot score (a width mismatch) count on neither side.
func replayCascade(env *anomaly.Compiled, threshold float64, records []Record) *CascadeBacktest {
	cb := &CascadeBacktest{Threshold: threshold}
	for _, r := range records {
		switch {
		case len(r.Features) != env.NumFeatures():
		case env.Score(r.Features) <= threshold:
			cb.ShortCircuited++
			if r.Malware() {
				cb.MalwareShortCircuited++
			}
		default:
			cb.PassedOn++
		}
	}
	if replayed := cb.ShortCircuited + cb.PassedOn; replayed > 0 {
		cb.ShortFraction = float64(cb.ShortCircuited) / float64(replayed)
	}
	return cb
}
