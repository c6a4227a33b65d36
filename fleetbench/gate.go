package main

import (
	"context"
	"fmt"
	"os"

	"twosmart"
	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/monitor"
	"twosmart/internal/persist"
	"twosmart/internal/wire"
	"twosmart/internal/workload"
)

// traffic is the seeded sample source every workload draws from: per-
// class pools of corpus feature vectors, projected onto the served
// model's Common-HPC features. Each stream is one application, so it
// draws all its samples from one class; classes are assigned in the
// corpus ratio (or benign only).
type traffic struct {
	data    *dataset.Dataset // the projected traffic corpus
	seed    uint64
	pools   [][][]float64 // class index → feature vectors
	classes []int         // one entry per corpus instance: picks a class in corpus ratio
}

// newTraffic collects the traffic corpus. It is generated from the run
// seed but never from the training seed, so the served model sees
// applications it was not trained on.
func newTraffic(ctx context.Context, seed int64, benignOnly bool) (*traffic, error) {
	data, err := twosmart.CollectContext(ctx, corpus.Config{
		Scale:       0.001,
		MinPerClass: 200,
		Budget:      30000,
		Seed:        seed,
		Omniscient:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("collect traffic corpus: %w", err)
	}
	data, err = data.SelectByName(twosmart.CommonFeatures())
	if err != nil {
		return nil, err
	}
	t := &traffic{data: data, seed: uint64(seed), pools: make([][][]float64, data.NumClasses())}
	for _, ins := range data.Instances {
		if benignOnly && workload.Class(ins.Label) != workload.Benign {
			continue
		}
		t.pools[ins.Label] = append(t.pools[ins.Label], ins.Features)
		t.classes = append(t.classes, ins.Label)
	}
	if len(t.classes) == 0 {
		return nil, fmt.Errorf("traffic corpus has no usable samples")
	}
	return t, nil
}

// benign returns the corpus's benign feature vectors.
func (t *traffic) benign() [][]float64 {
	return t.pools[workload.Benign]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// features is the loadPlan sample function: stream (conn, id) is one
// application of a class picked in corpus ratio, walking its class pool
// from a stream-specific start.
func (t *traffic) features(conn int, id, seq uint32) []float64 {
	h := splitmix(t.seed ^ splitmix(uint64(conn)<<32|uint64(id)))
	pool := t.pools[t.classes[h%uint64(len(t.classes))]]
	return pool[(h>>32+uint64(seq))%uint64(len(pool))]
}

// reference recomputes a stream's verdicts offline: the compiled
// detector, then the per-stream monitor, with the stage-0 envelope in
// front where the workload serves one — the same order the shard runs.
type reference struct {
	model     *core.Detector
	det       *core.CompiledDetector
	env       *anomaly.Compiled // nil when the cascade is off
	threshold float64
}

func loadReference(modelPath, envPath string) (*reference, error) {
	blob, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	det, err := core.UnmarshalDetector(blob)
	if err != nil {
		return nil, err
	}
	ref := &reference{model: det, det: det.Compile()}
	if envPath != "" {
		blob, err := os.ReadFile(envPath)
		if err != nil {
			return nil, err
		}
		env, err := persist.UnmarshalEnvelope(blob)
		if err != nil {
			return nil, err
		}
		ref.env = env.Compile()
		ref.threshold = env.Threshold
	}
	return ref, nil
}

// expectHash replays one stream's received seqs through the reference
// and returns the verdict hash the server must have produced.
func (ref *reference) expectHash(r *streamResult, features func(int, uint32, uint32) []float64) (uint64, error) {
	// The servers run the monitor's defaults (no -alpha/-raise/-clear).
	mon, err := monitor.New(ref.det, monitor.Config{})
	if err != nil {
		return 0, err
	}
	h := newVerdictHash()
	verdicts := make([]core.Verdict, 1)
	scores := make([]float64, 1)
	miss := r.missing
	for seq := r.first; seq < r.first+r.sent; seq++ {
		if len(miss) > 0 && miss[0] == seq {
			miss = miss[1:]
			continue
		}
		fv := features(r.conn, r.id, seq)
		if ref.env != nil && ref.env.Score(fv) <= ref.threshold {
			verdicts[0] = core.Verdict{PredictedClass: workload.Benign, Stage: core.StageShortCircuit}
			scores[0] = 0
		} else if err := ref.det.DetectScoredBatch(verdicts, scores, [][]float64{fv}); err != nil {
			return 0, err
		}
		ev := mon.ObserveScored(scores[0])
		var flags uint8
		if verdicts[0].Malware {
			flags |= wire.FlagMalware
		}
		if ev.Alarm {
			flags |= wire.FlagAlarm
		}
		if ev.Changed {
			flags |= wire.FlagAlarmChanged
		}
		if verdicts[0].Stage == core.StageShortCircuit {
			flags |= wire.FlagShortCircuit
		}
		h = hashVerdict(h, seq, flags, uint8(verdicts[0].PredictedClass), scores[0], ev.Smoothed)
	}
	return h, nil
}

// gateResult is the correctness verdict over one load phase.
type gateResult struct {
	streams int
	bad     int // streams failing any check
	// unaccounted counts streams whose only failure is conservation:
	// samples that got no verdict and were not reported as shed.
	unaccounted int
	problems    []string // first few failures, for the log
	lost        uint64   // samples sent that got no verdict
}

// check runs the correctness gate over a phase: every stream must have
// exactly one summary, opened under the served model version, with
// Samples+Shed equal to what the agent sent, Samples equal to the
// verdicts received, Shed equal to the seqs that got none, verdicts in
// send order without duplicates, and every verdict's class, flags, score
// and smoothed score equal to the offline reference.
func (ref *reference) check(res *loadResult) gateResult {
	g := gateResult{streams: len(res.streams)}
	version := res.welcome.ModelVersion
	for _, r := range res.streams {
		g.lost += uint64(len(r.missing))
		var why, conservation string
		switch {
		case r.sums != 1:
			why = fmt.Sprintf("%d stream summaries, want 1", r.sums)
		case r.order != "":
			why = r.order
		case r.summary.ModelVersion != version:
			why = fmt.Sprintf("summary model version %d, stream opened under %d", r.summary.ModelVersion, version)
		default:
			switch {
			case r.summary.Samples+r.summary.Shed != uint64(r.sent):
				conservation = fmt.Sprintf("summary samples %d + shed %d != sent %d (seqs without a verdict: %v)",
					r.summary.Samples, r.summary.Shed, r.sent, head(r.missing, 4))
			case r.summary.Samples != uint64(r.got):
				conservation = fmt.Sprintf("summary samples %d != verdicts received %d", r.summary.Samples, r.got)
			case r.summary.Shed != uint64(len(r.missing)):
				conservation = fmt.Sprintf("summary shed %d != samples without a verdict %d", r.summary.Shed, len(r.missing))
			}
			want, err := ref.expectHash(r, res.plan.features)
			if err != nil {
				why = "reference: " + err.Error()
			} else if want != r.hash {
				why = "verdicts differ from the offline reference (class, flags, score or smoothed score)"
			}
		}
		if why == "" && conservation == "" {
			continue
		}
		g.bad++
		if why == "" {
			g.unaccounted++
			why = conservation
		}
		if len(g.problems) < 5 {
			g.problems = append(g.problems, fmt.Sprintf("conn %d stream %d (%s): %s", r.conn, r.id, r.app, why))
		}
	}
	return g
}

// failed counts a phase's failed operations for the result line: samples
// that got no verdict, plus streams that failed any other check.
func (g gateResult) failed() uint64 {
	return g.lost + uint64(g.bad-g.unaccounted)
}

func head(v []uint32, n int) []uint32 {
	if len(v) > n {
		return v[:n]
	}
	return v
}
