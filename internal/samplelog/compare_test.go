package samplelog

import (
	"context"
	"math"
	"testing"

	"twosmart/internal/core"
	"twosmart/internal/dataset"
	"twosmart/internal/parallel"
	"twosmart/internal/shadow"
)

// logVerdicts scores every dataset sample with live and logs it through
// a Writer the way the shard's sample-log tap does (Record.SetVerdict),
// returning each sample's live decision as a shadow primary.
func logVerdicts(t *testing.T, dir string, live *core.Detector, data *dataset.Dataset) []shadow.Primary {
	t.Helper()
	w, err := OpenWriter(WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cd := live.Compile()
	primaries := make([]shadow.Primary, len(data.Instances))
	for i, ins := range data.Instances {
		v, err := cd.Detect(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		score, err := cd.MalwareScore(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		primaries[i] = shadow.Primary{Malware: v.Malware, Class: v.PredictedClass.String(), Score: score}
		rec := Record{
			Nanos:    1_700_000_000_000_000_000 + int64(i),
			Stream:   uint32(i),
			App:      "compare-app",
			Features: ins.Features,
		}
		rec.SetVerdict(v, score, false)
		w.Append(rec)
	}
	st, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 0 || st.Appended != uint64(len(data.Instances)) {
		t.Fatalf("fixture log appended %d, dropped %d of %d", st.Appended, st.Dropped, len(data.Instances))
	}
	return primaries
}

func samplesOf(data *dataset.Dataset) [][]float64 {
	samples := make([][]float64, len(data.Instances))
	for i, ins := range data.Instances {
		samples[i] = ins.Features
	}
	return samples
}

// sameReport fails unless got carries want's counts, per-class counts
// and maximum score delta exactly, and its mean score delta within
// floating-point summation noise.
func sameReport(t *testing.T, what string, got, want shadow.Report) {
	t.Helper()
	if got.Scored != want.Scored || got.Disagreements != want.Disagreements ||
		got.Errors != want.Errors || got.MaxScoreDelta != want.MaxScoreDelta {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
	if math.Abs(got.MeanAbsScoreDelta-want.MeanAbsScoreDelta) > 1e-12 {
		t.Fatalf("%s: mean abs delta %v, want %v", what, got.MeanAbsScoreDelta, want.MeanAbsScoreDelta)
	}
	if len(got.PerClass) != len(want.PerClass) {
		t.Fatalf("%s: per-class %v, want %v", what, got.PerClass, want.PerClass)
	}
	for name, w := range want.PerClass {
		g, ok := got.PerClass[name]
		if !ok || g.Observed != w.Observed || g.Disagreed != w.Disagreed {
			t.Fatalf("%s: class %s %+v, want %+v", what, name, g, w)
		}
	}
}

// TestComparisonPathsAgree pins that the three ways of comparing a
// candidate with the live model — a backtest over the live model's
// sample log, the offline Evaluate and the streaming shadow fed the live
// model's primaries — report the same divergence for the same samples.
func TestComparisonPathsAgree(t *testing.T) {
	live, cand, data := fixtures(t)
	dir := t.TempDir()
	primaries := logVerdicts(t, dir, live, data)

	bt, err := Backtest(context.Background(), dir, cand, BacktestOptions{Version: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := shadow.Evaluate(context.Background(), live, cand, samplesOf(data), parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := shadow.New(cand, shadow.Config{Queue: len(data.Instances), Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, ins := range data.Instances {
		if !s.Offer(ins.Features, primaries[i]) {
			t.Fatalf("sample %d dropped by a queue sized for the whole set", i)
		}
	}
	streamed := s.Close()

	if bt.Report.Scored != uint64(len(data.Instances)) || bt.Report.MaxScoreDelta == 0 {
		t.Fatalf("backtest %+v over %d samples: want every sample scored and distinct models", bt.Report, len(data.Instances))
	}
	sameReport(t, "evaluate vs backtest", eval, bt.Report)
	sameReport(t, "streaming shadow vs backtest", streamed, bt.Report)
}

// TestComparisonWorkerCounts pins that the replay fan-out's worker count
// — including 0, the per-CPU default — changes nothing but speed, for
// both Evaluate and Backtest.
func TestComparisonWorkerCounts(t *testing.T) {
	live, cand, data := fixtures(t)
	dir := t.TempDir()
	logVerdicts(t, dir, live, data)
	samples := samplesOf(data)

	var evalRef, btRef shadow.Report
	for i, workers := range []int{1, 0, 4} {
		eval, err := shadow.Evaluate(context.Background(), live, cand, samples, parallel.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := Backtest(context.Background(), dir, cand, BacktestOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			evalRef, btRef = eval, bt.Report
			continue
		}
		sameReport(t, "evaluate", eval, evalRef)
		sameReport(t, "backtest", bt.Report, btRef)
	}
}
