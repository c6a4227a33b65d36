package session

import (
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/telemetry"
)

// Stage0 is one stream's stage-0 filter, the cheap first stage of the
// serving cascade on both tiers: samples the compiled anomaly envelope
// scores at or below the threshold short-circuit as clear benign, the
// rest pass on to the full detector (at a shard) or to a shard (at the
// gateway). It owns the cascade_* split and stage-0 cost counters; each
// tier counts its own stage-1 work. Like the Stream that holds it, a
// filter is used by one goroutine at a time.
type Stage0 struct {
	env       *anomaly.Compiled
	threshold float64

	// Start and End bracket the envelope pass of the most recent Split —
	// the stage-0 hop of a traced sample and the cost the nanos counter
	// prices. Writing short-circuit answers happens after End.
	Start, End time.Time

	short, pass, nanos, scored telemetry.Counter
	appShort, appPass          telemetry.Counter

	// reusable arenas, grown to the largest batch seen: the short mask
	// and the pass-through batch's gathered columns.
	mask    []bool
	samples [][]float64
	seqs    []uint32
	ats     []time.Time
}

// NewStage0 builds a stream's filter over the generation's compiled
// envelope and effective threshold, with its counters in reg (nil = no-op
// instruments) and the per-app split labeled with app. A nil envelope
// means no cascade: NewStage0 returns nil and creates no cascade_* family.
func NewStage0(env *anomaly.Compiled, threshold float64, reg *telemetry.Registry, app string) *Stage0 {
	if env == nil {
		return nil
	}
	return &Stage0{
		env:       env,
		threshold: threshold,
		short:     reg.Counter("cascade_short_total"),
		pass:      reg.Counter("cascade_pass_total"),
		nanos:     reg.Counter("cascade_stage0_nanos_total"),
		scored:    reg.Counter("cascade_stage0_samples_total"),
		appShort:  reg.Counter(telemetry.Label("cascade_app_short_total", "app", app)),
		appPass:   reg.Counter(telemetry.Label("cascade_app_pass_total", "app", app)),
	}
}

// Split runs the envelope over b. mask[i] reports whether sample i
// short-circuits; pass holds the other samples in arrival order (b
// itself when none short-circuits). A gathered pass batch carries
// Samples, Seqs, Ats and DrainedAt but no Origins. Both results are
// filter-owned and valid until the next Split. 0 allocs once warm.
func (f *Stage0) Split(b Batch) (mask []bool, pass Batch) {
	f.Start = time.Now()
	n := b.Len()
	if cap(f.mask) < n {
		f.mask = make([]bool, n)
	}
	mask = f.mask[:n]
	f.samples, f.seqs, f.ats = f.samples[:0], f.seqs[:0], f.ats[:0]
	for i, fv := range b.Samples {
		mask[i] = f.env.Score(fv) <= f.threshold
		if !mask[i] {
			f.samples = append(f.samples, fv)
			f.seqs = append(f.seqs, b.Seqs[i])
			f.ats = append(f.ats, b.Ats[i])
		}
	}
	pass = b
	p := len(f.samples)
	if p < n {
		pass = Batch{Samples: f.samples, Seqs: f.seqs, Ats: f.ats, DrainedAt: b.DrainedAt}
	}
	f.End = time.Now()
	f.short.Add(uint64(n - p))
	f.pass.Add(uint64(p))
	f.appShort.Add(uint64(n - p))
	f.appPass.Add(uint64(p))
	f.nanos.Add(uint64(max(f.End.Sub(f.Start).Nanoseconds(), 0)))
	f.scored.Add(uint64(n))
	return mask, pass
}
