// Package core implements 2SMaRT, the paper's two-stage run-time
// specialized hardware-assisted malware detector.
//
// Stage 1 is a multinomial logistic regression (MLR) over the four Common
// HPC features (branch instructions, cache references, branch misses, node
// stores) that predicts the application type: benign or one of the four
// malware classes. Stage 2 dispatches to a per-class specialized binary
// classifier — the algorithm that wins for that class (J48, JRip, MLP or
// OneR), trained only on benign-versus-that-class data with that class's
// feature set — optionally boosted with AdaBoost.M1 so that detectors
// restricted to the four run-time-available counter registers match the
// detection performance of 8- and 16-HPC detectors.
package core

import (
	"context"
	"errors"
	"fmt"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/linear"
	"twosmart/internal/ml/nn"
	"twosmart/internal/ml/rules"
	"twosmart/internal/ml/tree"
	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
	"twosmart/internal/workload"
)

// CommonFeatures are the paper's four Common HPC events (Table II): the
// events that survive feature reduction for every malware class, and the
// only events a 4-register machine can collect in a single run.
var CommonFeatures = []string{
	"branch-instructions",
	"cache-references",
	"branch-misses",
	"node-stores",
}

// paperCustomFeatures lists the four per-class Custom events of Table II,
// which together with the Common four form each class's 8-HPC feature set.
var paperCustomFeatures = map[workload.Class][]string{
	workload.Backdoor: {"branch-loads", "L1-icache-load-misses", "LLC-load-misses", "iTLB-load-misses"},
	workload.Trojan:   {"cache-misses", "L1-icache-load-misses", "LLC-load-misses", "iTLB-load-misses"},
	workload.Virus:    {"LLC-loads", "L1-dcache-loads", "L1-dcache-stores", "iTLB-load-misses"},
	workload.Rootkit:  {"cache-misses", "branch-loads", "LLC-load-misses", "L1-dcache-stores"},
}

// CustomFeatures returns the paper's 8-event feature set for a malware
// class: the 4 Common events followed by the class's 4 Custom events.
func CustomFeatures(class workload.Class) ([]string, error) {
	custom, ok := paperCustomFeatures[class]
	if !ok {
		return nil, fmt.Errorf("core: no custom feature set for class %v", class)
	}
	out := append([]string(nil), CommonFeatures...)
	return append(out, custom...), nil
}

// Kind enumerates the stage-2 classifier algorithms the paper evaluates.
type Kind int

// The four stage-2 algorithm families.
const (
	J48 Kind = iota
	JRip
	MLP
	OneR
)

// Kinds returns all stage-2 algorithm kinds in the paper's order.
func Kinds() []Kind { return []Kind{J48, JRip, MLP, OneR} }

var kindNames = [...]string{J48: "J48", JRip: "JRip", MLP: "MLP", OneR: "OneR"}

// String returns the WEKA-style algorithm name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindByName resolves an algorithm kind from its name.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// NewTrainer builds a trainer of the given kind with the repository's
// default hyperparameters.
func NewTrainer(k Kind, seed int64) ml.Trainer {
	switch k {
	case J48:
		return &tree.J48Trainer{}
	case JRip:
		return &rules.JRipTrainer{Seed: seed}
	case MLP:
		return &nn.MLPTrainer{Seed: seed}
	case OneR:
		return &rules.OneRTrainer{}
	default:
		panic(fmt.Sprintf("core: unknown classifier kind %d", k))
	}
}

// TrainConfig configures 2SMaRT training.
type TrainConfig struct {
	// Stage1Features are the events for the stage-1 MLR (default: the 4
	// Common features).
	Stage1Features []string
	// Stage2Features maps each malware class to its feature set
	// (default: the 4 Common features for every class — the run-time
	// configuration).
	Stage2Features map[workload.Class][]string
	// Stage2Kinds fixes the algorithm per class. Classes absent from
	// the map get the automatically selected winner: each candidate is
	// trained on 2/3 of the training data and validated on the rest,
	// and the best F-measure wins (the paper's "specialized" detector).
	Stage2Kinds map[workload.Class]Kind
	// Boost wraps every stage-2 classifier in AdaBoost.M1 with
	// BoostRounds rounds (default 10), the paper's Boosted-HMD.
	Boost       bool
	BoostRounds int
	// Seed drives all stochastic components.
	Seed int64
	// Telemetry, when non-nil, records training spans (train/stage1 and a
	// train/stage2/<class> span per specialized detector, each feeding a
	// latency histogram) and the per-class kind-selection counters
	// train_stage2_kind_total{class=...,kind=...}.
	Telemetry *telemetry.Registry
}

type stage2Model struct {
	kind     Kind
	model    ml.Classifier
	features []int // indices into the detector's input feature space
}

// Detector is a trained 2SMaRT model. Its Detect input is a feature vector
// in the same feature space it was trained on (normally the full 44-event
// vector, or any projection containing the features it uses).
type Detector struct {
	featureNames []string
	stage1       ml.Classifier
	stage1Feats  []int
	stage2       map[workload.Class]stage2Model
}

// Train fits a 2SMaRT detector on a 5-class dataset whose classes are
// indexed by workload.Class (benign = 0). It is TrainContext without
// cancellation.
func Train(d *dataset.Dataset, cfg TrainConfig) (*Detector, error) {
	return TrainContext(context.Background(), d, cfg)
}

// TrainContext is Train with cancellation. The four specialized stage-2
// detectors are independent, so they train concurrently on a bounded pool;
// each class's model depends only on the data and cfg.Seed, so the trained
// detector is identical to a serial run. Cancelling ctx aborts between
// per-class training steps and returns ctx's error.
func TrainContext(ctx context.Context, d *dataset.Dataset, cfg TrainConfig) (*Detector, error) {
	if d.Len() == 0 {
		return nil, errors.New("core: empty training set")
	}
	if d.NumClasses() != workload.NumClasses {
		return nil, fmt.Errorf("core: training set has %d classes, want %d", d.NumClasses(), workload.NumClasses)
	}
	stage1Names := cfg.Stage1Features
	if stage1Names == nil {
		stage1Names = CommonFeatures
	}

	det := &Detector{
		featureNames: append([]string(nil), d.FeatureNames...),
		stage2:       make(map[workload.Class]stage2Model),
	}

	// --- Stage 1: multiclass MLR on the stage-1 features.
	s1Span := cfg.Telemetry.StartSpan("train/stage1")
	s1Idx, err := featureIndices(d, stage1Names)
	if err != nil {
		return nil, err
	}
	s1Data, err := d.Select(s1Idx)
	if err != nil {
		return nil, err
	}
	mlrTrainer := &linear.MLRTrainer{Seed: cfg.Seed}
	stage1, err := mlrTrainer.Train(s1Data)
	if err != nil {
		return nil, fmt.Errorf("core: stage-1 MLR: %w", err)
	}
	det.stage1 = stage1
	det.stage1Feats = s1Idx
	s1Span.End()

	// --- Stage 2: one specialized binary detector per malware class; the
	// four train independently and concurrently.
	classes := workload.MalwareClasses()
	popts := parallel.Options{}
	if cfg.Telemetry.Enabled() {
		popts.Hook = telemetry.NewPoolHook(cfg.Telemetry, "train_stage2")
	}
	models, err := parallel.Map(ctx, len(classes), popts,
		func(ctx context.Context, i int) (stage2Model, error) {
			return trainClassDetector(ctx, d, cfg, classes[i])
		})
	if err != nil {
		return nil, err
	}
	for i, class := range classes {
		det.stage2[class] = models[i]
	}
	return det, nil
}

// trainClassDetector fits one class's specialized stage-2 detector.
func trainClassDetector(ctx context.Context, d *dataset.Dataset, cfg TrainConfig, class workload.Class) (stage2Model, error) {
	span := cfg.Telemetry.StartSpan("train/stage2/" + class.String())
	defer span.End()
	names := CommonFeatures
	if cfg.Stage2Features != nil && cfg.Stage2Features[class] != nil {
		names = cfg.Stage2Features[class]
	}
	idx, err := featureIndices(d, names)
	if err != nil {
		return stage2Model{}, fmt.Errorf("core: stage-2 %v: %w", class, err)
	}
	binary, err := BinaryTask(d, class)
	if err != nil {
		return stage2Model{}, err
	}
	binary, err = binary.Select(idx)
	if err != nil {
		return stage2Model{}, err
	}

	var kind Kind
	var model ml.Classifier
	if cfg.Stage2Kinds != nil {
		if k, ok := cfg.Stage2Kinds[class]; ok {
			kind = k
			model, err = trainStage2(k, binary, cfg)
			if err != nil {
				return stage2Model{}, fmt.Errorf("core: stage-2 %v (%v): %w", class, k, err)
			}
		}
	}
	if model == nil {
		kind, model, err = selectBest(ctx, binary, cfg)
		if err != nil {
			return stage2Model{}, fmt.Errorf("core: stage-2 %v selection: %w", class, err)
		}
	}
	name := telemetry.Label(telemetry.Label("train_stage2_kind_total", "class", class.String()), "kind", kind.String())
	cfg.Telemetry.Counter(name).Inc()
	return stage2Model{kind: kind, model: model, features: idx}, nil
}

// BinaryTask extracts the benign-versus-one-class binary dataset the
// specialized stage-2 detectors train on: label 0 = benign, 1 = class.
func BinaryTask(d *dataset.Dataset, class workload.Class) (*dataset.Dataset, error) {
	if !class.IsMalware() {
		return nil, fmt.Errorf("core: binary task for non-malware class %v", class)
	}
	return d.Relabel([]string{"benign", class.String()}, func(old int) int {
		switch workload.Class(old) {
		case workload.Benign:
			return 0
		case class:
			return 1
		default:
			return -1 // other malware classes are excluded
		}
	})
}

func trainStage2(k Kind, binary *dataset.Dataset, cfg TrainConfig) (ml.Classifier, error) {
	base := NewTrainer(k, cfg.Seed)
	if cfg.Boost {
		rounds := cfg.BoostRounds
		if rounds <= 0 {
			rounds = 10
		}
		return (&ensemble.AdaBoostTrainer{Base: base, Rounds: rounds, Seed: cfg.Seed}).Train(binary)
	}
	return base.Train(binary)
}

// selectBest trains every candidate kind on 2/3 of the binary data and
// keeps the best validation F-measure. Cancellation is observed between
// candidates.
func selectBest(ctx context.Context, binary *dataset.Dataset, cfg TrainConfig) (Kind, ml.Classifier, error) {
	fit, val, err := binary.Split(2.0/3, cfg.Seed+101)
	if err != nil {
		return 0, nil, err
	}
	bestKind := J48
	bestF := -1.0
	for _, k := range Kinds() {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		model, err := trainStage2(k, fit, cfg)
		if err != nil {
			continue // a failing candidate just loses the selection
		}
		ev, err := ml.EvaluateBinary(model, val)
		if err != nil {
			continue
		}
		if ev.F1 > bestF {
			bestF = ev.F1
			bestKind = k
		}
	}
	if bestF < 0 {
		return 0, nil, errors.New("no stage-2 candidate trained successfully")
	}
	// Refit the winner on all the binary data.
	model, err := trainStage2(bestKind, binary, cfg)
	if err != nil {
		return 0, nil, err
	}
	return bestKind, model, nil
}

func featureIndices(d *dataset.Dataset, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := d.FeatureIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("core: feature %q not in dataset", n)
		}
		idx[i] = j
	}
	return idx, nil
}

// CascadeStage marks which stage of the serving cascade produced a
// verdict. The zero value is the full two-stage path, so detectors that
// know nothing about the cascade produce correctly-marked verdicts for
// free.
type CascadeStage uint8

const (
	// StageFull means the full two-stage detector scored the sample.
	StageFull CascadeStage = iota
	// StageShortCircuit means the stage-0 anomaly envelope classified
	// the sample as clear benign and the full detector never ran.
	StageShortCircuit
)

// String names the stage for logs and trace output.
func (s CascadeStage) String() string {
	if s == StageShortCircuit {
		return "stage0-short-circuit"
	}
	return "full"
}

// Verdict is the detector's decision for one sample.
type Verdict struct {
	// PredictedClass is stage 1's application-type prediction.
	PredictedClass workload.Class
	// Malware is the final decision: stage 2's confirmation when stage 1
	// predicted a malware class, false when stage 1 predicted benign.
	Malware bool
	// Stage2Kind is the specialized algorithm consulted (valid when
	// stage 1 predicted a malware class).
	Stage2Kind Kind
	// Confidence is the consulted model's score for its decision.
	Confidence float64
	// Stage records which cascade stage decided: StageFull for the
	// two-stage detector, StageShortCircuit when the stage-0 envelope
	// short-circuited the sample as clear benign.
	Stage CascadeStage
}

// ShortCircuitVerdict is the verdict every tier gives a sample the
// stage-0 envelope short-circuits: clear benign, decided by stage 0. Its
// malware score is 0.
var ShortCircuitVerdict = Verdict{PredictedClass: workload.Benign, Confidence: 1, Stage: StageShortCircuit}

// Detect classifies one sample (a feature vector in the training feature
// space). Stage 1's role is detector selection: the MLR picks the malware
// class with the highest probability, and that class's specialized binary
// classifier makes the final malware/benign decision (Fig 3's second stage
// produces the detection output). A stage-1 "benign" prediction therefore
// does not bypass stage 2 — the most probable malware class's detector is
// still consulted, so a routing error cannot silently drop a detection.
func (det *Detector) Detect(features []float64) (Verdict, error) {
	if len(features) != len(det.featureNames) {
		return Verdict{}, fmt.Errorf("core: sample has %d features, want %d", len(features), len(det.featureNames))
	}
	s1 := project(features, det.stage1Feats)
	scores := det.stage1.Scores(s1)
	routed := det.routeClass(scores)
	s2 := det.stage2[routed]
	s2Scores := s2.model.Scores(project(features, s2.features))
	malware := ml.Argmax(s2Scores) == ml.PositiveClass
	conf := s2Scores[ml.Argmax(s2Scores)]
	predicted := workload.Benign
	if malware {
		predicted = routed
	}
	return Verdict{
		PredictedClass: predicted,
		Malware:        malware,
		Stage2Kind:     s2.kind,
		Confidence:     conf,
	}, nil
}

// routeClass returns the malware class with the highest stage-1 probability
// (benign is not a routing target; it is a possible final verdict).
func (det *Detector) routeClass(scores []float64) workload.Class {
	best := workload.MalwareClasses()[0]
	for _, c := range workload.MalwareClasses() {
		if scores[c] > scores[best] {
			best = c
		}
	}
	return best
}

// MalwareScore returns a ranking score in [0,1] for "this sample is
// malware", combining stage-1 class probability and the stage-2 detector's
// score; used for ROC analysis of the end-to-end detector.
func (det *Detector) MalwareScore(features []float64) (float64, error) {
	if len(features) != len(det.featureNames) {
		return 0, fmt.Errorf("core: sample has %d features, want %d", len(features), len(det.featureNames))
	}
	s1 := project(features, det.stage1Feats)
	scores := det.stage1.Scores(s1)
	s2 := det.stage2[det.routeClass(scores)]
	s2Scores := s2.model.Scores(project(features, s2.features))
	total := s2Scores[0] + s2Scores[1]
	if total <= 0 {
		return 0.5, nil
	}
	return s2Scores[1] / total, nil
}

// Stage1Predict exposes the stage-1 class prediction alone (used by the
// single-stage-MLR comparison in Fig 5a).
func (det *Detector) Stage1Predict(features []float64) (workload.Class, error) {
	if len(features) != len(det.featureNames) {
		return 0, fmt.Errorf("core: sample has %d features, want %d", len(features), len(det.featureNames))
	}
	return workload.Class(ml.Argmax(det.stage1.Scores(project(features, det.stage1Feats)))), nil
}

// Stage2Info reports the algorithm kind and feature names used for a
// class's specialized detector.
func (det *Detector) Stage2Info(class workload.Class) (Kind, []string, error) {
	s2, ok := det.stage2[class]
	if !ok {
		return 0, nil, fmt.Errorf("core: no stage-2 detector for class %v", class)
	}
	names := make([]string, len(s2.features))
	for i, idx := range s2.features {
		names[i] = det.featureNames[idx]
	}
	return s2.kind, names, nil
}

// Stage2Model exposes a class's trained stage-2 classifier (used by the
// hardware cost model).
func (det *Detector) Stage2Model(class workload.Class) (ml.Classifier, error) {
	s2, ok := det.stage2[class]
	if !ok {
		return nil, fmt.Errorf("core: no stage-2 detector for class %v", class)
	}
	return s2.model, nil
}

// Stage1Model exposes the trained stage-1 MLR (used by the hardware cost
// model).
func (det *Detector) Stage1Model() ml.Classifier { return det.stage1 }

// FeatureNames returns the input feature space the detector expects.
func (det *Detector) FeatureNames() []string {
	return append([]string(nil), det.featureNames...)
}

// NumFeatures returns the input feature space width the detector
// expects, matching CompiledDetector.NumFeatures without the copy
// FeatureNames makes.
func (det *Detector) NumFeatures() int { return len(det.featureNames) }

func project(features []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = features[j]
	}
	return out
}
