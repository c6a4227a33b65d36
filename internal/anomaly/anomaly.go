// Package anomaly is the stage-0 pre-filter of the detection cascade: a
// one-class quantile envelope over the HPC features, trained from benign
// samples only. Samples that land inside the envelope are "clear benign"
// and short-circuit serving before stage-1 MLR ever runs; anything that
// exceeds the envelope falls through to the full two-stage detector.
//
// The model is deliberately tiny — per-feature [lo, hi] bounds plus a
// normalizing scale — because its whole value is being cheaper than
// stage-1 by an order of magnitude. The anomaly score of a sample is its
// worst normalized exceedance over any feature: 0 for a sample inside the
// envelope on every axis, growing linearly as any feature escapes. The
// short-circuit rule is score <= threshold.
//
// The threshold is not hand-picked: Train calibrates it on a held-out
// benign split so that at most Budget of held-out benign samples score
// above it (and would therefore be passed onward to the full detector by
// mistake). The budget bounds wasted stage-1 work on benign traffic; the
// safety direction — malware that scores inside the envelope and gets
// short-circuited — is measured empirically by `smartctl backtest` and
// the experiment sweep, never assumed.
//
// Like every classifier family in this repository, the envelope lowers to
// an allocation-free evaluator via Compile: a flat slab of thresholds
// scored with zero heap allocations per sample, bit-identical to the
// interpreted path (pinned by property test).
package anomaly

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Envelope is a trained one-class quantile envelope. The JSON shape is
// the persistence format (see internal/persist.MarshalEnvelope); all
// fields are exported data, no behavior state.
type Envelope struct {
	// Features names the feature axes, in sample order. A sample scored
	// against the envelope must have exactly this width and ordering.
	Features []string `json:"features"`
	// Lo and Hi are the per-feature envelope bounds (fit quantiles of the
	// benign corpus).
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
	// InvWidth is the per-feature normalizing scale: 1 / (Hi-Lo) with a
	// floor for degenerate (constant) features. Stored rather than
	// recomputed so the interpreted and compiled evaluators share the
	// exact same float operations, bit for bit.
	InvWidth []float64 `json:"inv_width"`
	// Threshold is the calibrated short-circuit threshold: samples with
	// Score <= Threshold are clear benign. Serving may override it.
	Threshold float64 `json:"threshold"`
	// Budget is the false-short-circuit budget the threshold was
	// calibrated to: at most this fraction of held-out benign samples
	// scored above Threshold at training time.
	Budget float64 `json:"budget"`
}

// NumFeatures returns the envelope's feature width.
func (e *Envelope) NumFeatures() int { return len(e.Features) }

// Validate checks internal consistency: parallel slices, ordered finite
// bounds, positive scales, a non-negative threshold. A nil envelope is
// invalid (callers gate on nil for "cascade disabled" before validating).
func (e *Envelope) Validate() error {
	if e == nil {
		return errors.New("anomaly: nil envelope")
	}
	if len(e.Features) == 0 {
		return errors.New("anomaly: envelope has no features")
	}
	if len(e.Lo) != len(e.Features) || len(e.Hi) != len(e.Features) || len(e.InvWidth) != len(e.Features) {
		return fmt.Errorf("anomaly: bound widths lo=%d hi=%d inv_width=%d, want %d",
			len(e.Lo), len(e.Hi), len(e.InvWidth), len(e.Features))
	}
	seen := make(map[string]bool, len(e.Features))
	for i, name := range e.Features {
		if name == "" {
			return fmt.Errorf("anomaly: feature %d has empty name", i)
		}
		if seen[name] {
			return fmt.Errorf("anomaly: duplicate feature %q", name)
		}
		seen[name] = true
		lo, hi, iw := e.Lo[i], e.Hi[i], e.InvWidth[i]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return fmt.Errorf("anomaly: feature %q has non-finite bounds [%v, %v]", name, lo, hi)
		}
		if lo > hi {
			return fmt.Errorf("anomaly: feature %q has inverted bounds [%v, %v]", name, lo, hi)
		}
		if !(iw > 0) || math.IsInf(iw, 0) {
			return fmt.Errorf("anomaly: feature %q has non-positive scale %v", name, iw)
		}
	}
	if math.IsNaN(e.Threshold) || math.IsInf(e.Threshold, 0) || e.Threshold < 0 {
		return fmt.Errorf("anomaly: threshold %v out of range", e.Threshold)
	}
	if math.IsNaN(e.Budget) || e.Budget < 0 || e.Budget >= 1 {
		return fmt.Errorf("anomaly: budget %v outside [0, 1)", e.Budget)
	}
	return nil
}

// Score returns the sample's anomaly score: the worst normalized
// exceedance over any feature, 0 when the sample is inside the envelope
// on every axis. features must have exactly NumFeatures elements — width
// is the caller's invariant on the hot path, checked once at bind time.
func (e *Envelope) Score(features []float64) float64 {
	var worst float64
	for i, v := range features {
		if d := (e.Lo[i] - v) * e.InvWidth[i]; d > worst {
			worst = d
		}
		if d := (v - e.Hi[i]) * e.InvWidth[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// Compiled is the envelope lowered into one flat slab: for each feature,
// [lo, hi, invWidth] packed contiguously so a score is a single linear
// scan with zero heap allocations. The arithmetic mirrors Envelope.Score
// operation for operation, so compiled and interpreted scores are
// bit-identical. A Compiled value holds no mutable state and, unlike the
// classifier families' compiled forms, is safe to share across
// goroutines.
type Compiled struct {
	slab []float64 // 3 entries per feature: lo, hi, invWidth
	n    int
}

// Compile lowers the envelope. The caller is expected to have Validated
// it first (registry and persist loads do); Compile itself only copies.
func (e *Envelope) Compile() *Compiled {
	n := len(e.Features)
	c := &Compiled{slab: make([]float64, 3*n), n: n}
	for i := 0; i < n; i++ {
		c.slab[3*i] = e.Lo[i]
		c.slab[3*i+1] = e.Hi[i]
		c.slab[3*i+2] = e.InvWidth[i]
	}
	return c
}

// NumFeatures returns the compiled envelope's feature width.
func (c *Compiled) NumFeatures() int { return c.n }

// Resolve applies the operator's cascade-threshold knob to an optional
// envelope: a nil envelope or override < 0 disables the stage-0 cascade
// (nil result), 0 keeps the envelope's calibrated threshold and > 0
// replaces it. An enabled envelope is validated and compiled; checking
// its width against the served model is left to the caller, whose rule
// for a mismatch differs by tier.
func Resolve(e *Envelope, override float64) (*Compiled, float64, error) {
	if e == nil || override < 0 {
		return nil, 0, nil
	}
	if err := e.Validate(); err != nil {
		return nil, 0, err
	}
	threshold := e.Threshold
	if override > 0 {
		threshold = override
	}
	return e.Compile(), threshold, nil
}

// Score returns the sample's anomaly score; see Envelope.Score. 0 allocs.
func (c *Compiled) Score(features []float64) float64 {
	var worst float64
	slab := c.slab
	for i, v := range features {
		j := 3 * i
		if d := (slab[j] - v) * slab[j+2]; d > worst {
			worst = d
		}
		if d := (v - slab[j+1]) * slab[j+2]; d > worst {
			worst = d
		}
	}
	return worst
}

// TrainConfig tunes Train. The zero value selects the defaults.
type TrainConfig struct {
	// Budget is the false-short-circuit budget: the calibrated threshold
	// lets at most this fraction of held-out benign samples score above
	// it (and be passed onward as "suspicious" by mistake). Default
	// DefaultBudget.
	Budget float64
	// Margin is the per-feature quantile trimmed off each side when
	// fitting the [lo, hi] bounds, so single outliers in the benign
	// corpus don't stretch the envelope. Default DefaultMargin.
	Margin float64
	// Holdout is the fraction of benign samples withheld from the bound
	// fit and used only to calibrate the threshold. Default 1/3.
	Holdout float64
	// Seed drives the fit/holdout shuffle. The same seed and corpus
	// always produce the same envelope.
	Seed int64
}

const (
	// DefaultBudget passes at most 0.1% of held-out benign onward.
	DefaultBudget = 0.001
	// DefaultMargin trims 1% off each tail when fitting bounds.
	DefaultMargin = 0.01
	// MinSamples is the smallest benign corpus Train accepts.
	MinSamples = 12
)

func (cfg TrainConfig) fill() (TrainConfig, error) {
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Budget < 0 || cfg.Budget >= 1 {
		return cfg, fmt.Errorf("anomaly: budget %v outside (0, 1)", cfg.Budget)
	}
	if cfg.Margin == 0 {
		cfg.Margin = DefaultMargin
	}
	if cfg.Margin < 0 || cfg.Margin >= 0.5 {
		return cfg, fmt.Errorf("anomaly: margin %v outside [0, 0.5)", cfg.Margin)
	}
	if cfg.Holdout == 0 {
		cfg.Holdout = 1.0 / 3
	}
	if cfg.Holdout <= 0 || cfg.Holdout >= 1 {
		return cfg, fmt.Errorf("anomaly: holdout %v outside (0, 1)", cfg.Holdout)
	}
	return cfg, nil
}

// Train fits an envelope over the named features from benign samples
// only. The corpus is shuffled (deterministically by cfg.Seed) and split:
// the fit portion sets per-feature quantile bounds, the held-out portion
// calibrates the threshold to the budget. Samples must all have exactly
// len(features) values.
func Train(features []string, benign [][]float64, cfg TrainConfig) (*Envelope, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	if len(features) == 0 {
		return nil, errors.New("anomaly: no features")
	}
	if len(benign) < MinSamples {
		return nil, fmt.Errorf("anomaly: %d benign samples, need >= %d", len(benign), MinSamples)
	}
	for i, s := range benign {
		if len(s) != len(features) {
			return nil, fmt.Errorf("anomaly: sample %d has %d features, want %d", i, len(s), len(features))
		}
	}

	order := rand.New(rand.NewSource(cfg.Seed)).Perm(len(benign))
	nHold := int(math.Round(float64(len(benign)) * cfg.Holdout))
	if nHold < 1 {
		nHold = 1
	}
	if nHold > len(benign)-2 {
		nHold = len(benign) - 2
	}
	fit := make([][]float64, 0, len(benign)-nHold)
	hold := make([][]float64, 0, nHold)
	for i, idx := range order {
		if i < nHold {
			hold = append(hold, benign[idx])
		} else {
			fit = append(fit, benign[idx])
		}
	}

	e := &Envelope{
		Features: append([]string(nil), features...),
		Lo:       make([]float64, len(features)),
		Hi:       make([]float64, len(features)),
		InvWidth: make([]float64, len(features)),
		Budget:   cfg.Budget,
	}
	col := make([]float64, len(fit))
	for f := range features {
		for i, s := range fit {
			col[i] = s[f]
		}
		sort.Float64s(col)
		lo := quantile(col, cfg.Margin)
		hi := quantile(col, 1-cfg.Margin)
		width := hi - lo
		if width <= 0 {
			// Constant feature in the fit set: any deviation is measured
			// against the feature's own magnitude so the score stays
			// scale-aware rather than exploding.
			width = math.Max(math.Abs(hi), 1)
		}
		e.Lo[f], e.Hi[f], e.InvWidth[f] = lo, hi, 1/width
	}

	// Calibrate: pick the smallest threshold with at most Budget of the
	// held-out benign scoring above it.
	scores := make([]float64, len(hold))
	for i, s := range hold {
		scores[i] = e.Score(s)
	}
	sort.Float64s(scores)
	k := int(math.Ceil(float64(len(scores))*(1-cfg.Budget))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(scores) {
		k = len(scores) - 1
	}
	e.Threshold = scores[k]
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("anomaly: trained envelope invalid: %w", err)
	}
	return e, nil
}

// PassRate returns the fraction of samples scoring above threshold (those
// the cascade would pass onward to the full detector). Used by training
// reports and the experiment sweep.
func (e *Envelope) PassRate(samples [][]float64, threshold float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	passed := 0
	for _, s := range samples {
		if e.Score(s) > threshold {
			passed++
		}
	}
	return float64(passed) / float64(len(samples))
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(float64(len(sorted))*q)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}
