// Command smartrain collects the profiling corpus, runs the feature
// reduction pipeline, trains the 2SMaRT two-stage detector and reports its
// held-out detection quality. The collected dataset can be exported to CSV
// for later reuse (cmd/smartdetect and the experiment drivers accept it).
//
// Usage:
//
//	smartrain -scale 0.15 -out corpus.csv
//	smartrain -in corpus.csv -boost
//	smartrain -telemetry-addr :8080 -report run.json
//	smartrain -runtime -model det.json -envelope env.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"twosmart"
	"twosmart/internal/anomaly"
	"twosmart/internal/cli"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/metrics"
	"twosmart/internal/persist"
	"twosmart/internal/telemetry"
	"twosmart/internal/workload"
)

// profiled tracks collection progress so an interrupted run can report how
// far it got (packed as done<<32 | total).
var profiled atomic.Uint64

var app = cli.New("smartrain")

func main() {
	scale := flag.Float64("scale", 0.15, "corpus scale (1.0 = the paper's 3621 applications)")
	seed := flag.Int64("seed", 42, "seed for corpus, split and training")
	boost := flag.Bool("boost", false, "wrap stage-2 detectors in AdaBoost.M1")
	rounds := flag.Int("rounds", 10, "AdaBoost rounds when -boost is set")
	outCSV := flag.String("out", "", "write the collected dataset to this CSV file")
	inCSV := flag.String("in", "", "load the dataset from this CSV file instead of collecting")
	modelOut := flag.String("model", "", "write the trained detector (JSON) to this file")
	manifestOut := flag.String("manifest", "", "write the corpus provenance manifest (JSON) to this file")
	runtimeModel := flag.Bool("runtime", false, "train on the 4 Common HPC features only, producing a model deployable with cmd/smartdetect -model")
	faithful := flag.Bool("faithful", false, "use the 11-batch multiplexed collection path")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON: stage timings, dataset stats, final metrics) to this file (- for stdout)")
	envelopeOut := flag.String("envelope", "", "train a stage-0 anomaly envelope from the training split's benign samples and write it (JSON) to this file")
	envelopeBudget := flag.Float64("envelope-budget", anomaly.DefaultBudget, "envelope false-short-circuit budget: the held-out benign fraction allowed to score above the calibrated threshold")
	flag.Parse()
	ctx := app.Start()
	defer app.Close()

	data, err := loadOrCollect(ctx, *inCSV, *scale, *seed, *faithful)
	if err != nil {
		fatal(err)
	}
	if *outCSV != "" {
		f, err := os.Create(*outCSV)
		if err != nil {
			fatal(err)
		}
		if err := data.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		app.Log.Info("wrote dataset", "samples", data.Len(), "path", *outCSV)
	}

	if *manifestOut != "" {
		f, err := os.Create(*manifestOut)
		if err != nil {
			fatal(err)
		}
		m := corpus.Config{Scale: *scale, Seed: *seed, Omniscient: !*faithful}.Manifest()
		if err := m.WriteJSON(f, time.Now()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		app.Log.Info("wrote manifest", "path", *manifestOut)
	}

	if *runtimeModel {
		data, err = data.SelectByName(twosmart.CommonFeatures())
		if err != nil {
			fatal(err)
		}
	}

	train, test, err := data.Split(0.6, *seed)
	if err != nil {
		fatal(err)
	}
	app.Log.Info("training 2SMaRT", "samples", train.Len(), "boost", *boost)
	trainSpan := app.Telemetry.StartSpan("train")
	det, err := twosmart.TrainContext(ctx, train, twosmart.TrainConfig{
		Boost:       *boost,
		BoostRounds: *rounds,
		Seed:        *seed,
		Telemetry:   app.Telemetry,
	})
	if err != nil {
		fatal(err)
	}
	trainDur := trainSpan.End()
	app.Log.Info("trained", "duration", trainDur.Round(time.Millisecond))

	if *modelOut != "" {
		blob, err := det.Marshal()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*modelOut, blob, 0o644); err != nil {
			fatal(err)
		}
		app.Log.Info("wrote detector", "bytes", len(blob), "path", *modelOut)
	}

	var envCheck *envelopeCheck
	if *envelopeOut != "" {
		if envCheck, err = trainEnvelope(*envelopeOut, *envelopeBudget, *seed, train, test); err != nil {
			fatal(err)
		}
	}

	fmt.Println("stage-2 specialized detectors:")
	for _, c := range twosmart.MalwareClasses() {
		kind, feats, err := det.Stage2Info(c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-10s %-5v features=%v\n", c, kind, feats)
	}

	evalSpan := app.Telemetry.StartSpan("evaluate")
	var pooled metrics.Confusion
	perClass := map[workload.Class]*metrics.Confusion{}
	for _, c := range twosmart.MalwareClasses() {
		perClass[c] = &metrics.Confusion{}
	}
	for _, ins := range test.Instances {
		v, err := det.Detect(ins.Features)
		if err != nil {
			fatal(err)
		}
		actual := workload.Class(ins.Label)
		pooled.Add(actual.IsMalware(), v.Malware)
		for _, c := range twosmart.MalwareClasses() {
			if actual == workload.Benign || actual == c {
				perClass[c].Add(actual == c, v.Malware)
			}
		}
	}
	evalSpan.End()
	fmt.Printf("\nheld-out detection (%d samples):\n", test.Len())
	fmt.Printf("  pooled: F=%.1f%% precision=%.1f%% recall=%.1f%%\n",
		100*pooled.F1(), 100*pooled.Precision(), 100*pooled.Recall())
	for _, c := range twosmart.MalwareClasses() {
		fmt.Printf("  %-10s F=%.1f%%\n", c, 100*perClass[c].F1())
	}

	if *reportOut != "" {
		rep := app.Telemetry.Report(app.Tool)
		rep.Dataset = datasetStats(data)
		rep.Results["pooled_f1"] = pooled.F1()
		rep.Results["pooled_precision"] = pooled.Precision()
		rep.Results["pooled_recall"] = pooled.Recall()
		for _, c := range twosmart.MalwareClasses() {
			rep.Results["f1_"+c.String()] = perClass[c].F1()
		}
		if envCheck != nil {
			envCheck.record(rep)
		}
		if err := rep.WriteFile(*reportOut); err != nil {
			fatal(err)
		}
		if *reportOut != "-" {
			app.Log.Info("wrote run report", "path", *reportOut)
		}
	}
}

// envelopeCheck is a calibrated envelope's budget and the fraction of the
// held-out test benign it passes onward to the full detector.
type envelopeCheck struct {
	budget, testPass float64
}

// met reports whether the held-out benign stayed within the budget.
func (c *envelopeCheck) met() bool { return c.testPass <= c.budget }

// record writes the calibration outcome into the run report.
func (c *envelopeCheck) record(rep *telemetry.RunReport) {
	rep.Results["envelope_budget"] = c.budget
	rep.Results["envelope_test_benign_pass"] = c.testPass
	if rep.Notes == nil {
		rep.Notes = map[string]string{}
	}
	rep.Notes["envelope_budget_met"] = strconv.FormatBool(c.met())
}

// trainEnvelope fits the stage-0 cascade envelope on the training split's
// benign samples (in the same feature space the detector trains in),
// persists it and reports the calibration: the short-circuit threshold
// plus how the fully held-out test benign behaves under it. A missed
// budget is logged as a warning, not an error: the envelope still works
// as a cost filter, and the run report carries the miss.
func trainEnvelope(path string, budget float64, seed int64, train, test *twosmart.Dataset) (*envelopeCheck, error) {
	benignOf := func(d *twosmart.Dataset) [][]float64 {
		var out [][]float64
		for _, ins := range d.Instances {
			if workload.Class(ins.Label) == workload.Benign {
				out = append(out, ins.Features)
			}
		}
		return out
	}
	env, err := anomaly.Train(train.FeatureNames, benignOf(train), anomaly.TrainConfig{
		Budget: budget,
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	blob, err := persist.MarshalEnvelope(env)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	check := &envelopeCheck{budget: env.Budget, testPass: env.PassRate(benignOf(test), env.Threshold)}
	app.Log.Info("wrote stage-0 envelope", "path", path,
		"features", env.NumFeatures(), "threshold", env.Threshold, "budget", env.Budget)
	fmt.Printf("\nstage-0 envelope: threshold=%.4g budget=%.4g test-benign passed onward=%.2f%%\n",
		env.Threshold, env.Budget, 100*check.testPass)
	if !check.met() {
		app.Log.Warn("stage-0 envelope misses its budget on held-out benign",
			"budget", check.budget, "test_benign_pass", check.testPass)
	}
	return check, nil
}

func loadOrCollect(ctx context.Context, inCSV string, scale float64, seed int64, faithful bool) (*twosmart.Dataset, error) {
	if inCSV != "" {
		f, err := os.Open(inCSV)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return readCSV(f)
	}
	app.Log.Info("collecting corpus", "scale", scale, "faithful", faithful)
	progress := app.Progress("profiling")
	return twosmart.CollectContext(ctx, twosmart.CollectConfig{
		Scale:      scale,
		Seed:       seed,
		Omniscient: !faithful,
		Telemetry:  app.Telemetry,
		Progress: func(done, total int) {
			profiled.Store(uint64(done)<<32 | uint64(total))
			if progress != nil {
				progress(done, total)
			}
		},
	})
}

// readCSV parses a dataset written by WriteCSV under the standard 5-class
// naming.
func readCSV(f *os.File) (*twosmart.Dataset, error) {
	return dataset.ReadCSV(f, corpus.ClassNames())
}

func datasetStats(d *twosmart.Dataset) *twosmart.DatasetStats {
	stats := &twosmart.DatasetStats{
		Samples:  d.Len(),
		Features: len(d.FeatureNames),
		Classes:  map[string]int{},
	}
	for _, ins := range d.Instances {
		stats.Classes[d.ClassNames[ins.Label]]++
	}
	return stats
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		if p := profiled.Load(); p != 0 {
			app.Log.Warn("interrupted mid-collection; partial work discarded",
				"profiled", p>>32, "total", p&0xffffffff)
		}
	}
	app.Fatal(err)
}
