package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with SMARTRAIN_TEST_MAIN
// set, the test binary is smartrain.
func TestMain(m *testing.M) {
	if os.Getenv("SMARTRAIN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// envelopeLine is the stdout calibration line; the serving benchmark
// parses it, so its shape must not change.
var envelopeLine = regexp.MustCompile(`(?m)^stage-0 envelope: threshold=(\S+) budget=(\S+) test-benign passed onward=(\S+)%$`)

// TestEnvelopeBudgetReported pins how an envelope calibration is
// reported. At -scale 0.002 the held-out benign passes onward far above
// the default 0.1% budget: the run still exits 0 and prints the usual
// line, but warns and writes envelope_budget_met=false with both rates
// into the run report. A budget the held-out benign stays within is
// reported as met, without the warning.
func TestEnvelopeBudgetReported(t *testing.T) {
	for _, tc := range []struct {
		budget string
		met    bool
	}{
		{"0.001", false},
		{"0.5", true},
	} {
		t.Run("budget="+tc.budget, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "run.json")
			cmd := exec.Command(os.Args[0], "-scale", "0.002", "-runtime", "-quiet",
				"-envelope", filepath.Join(dir, "env.json"), "-envelope-budget", tc.budget, "-report", report)
			cmd.Env = append(os.Environ(), "SMARTRAIN_TEST_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("smartrain: %v\n%s", err, stderr.Bytes())
			}
			m := envelopeLine.FindSubmatch(out)
			if m == nil {
				t.Fatalf("no envelope line in stdout:\n%s", out)
			}
			budget, _ := strconv.ParseFloat(string(m[2]), 64)
			passPct, _ := strconv.ParseFloat(string(m[3]), 64)
			if got := passPct/100 <= budget; got != tc.met {
				t.Fatalf("printed pass %.2f%% against budget %g: met=%v, want %v", passPct, budget, got, tc.met)
			}
			if warned := strings.Contains(stderr.String(), "misses its budget"); warned == tc.met {
				t.Errorf("warning logged=%v with budget met=%v; stderr:\n%s", warned, tc.met, stderr.Bytes())
			}

			blob, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Results map[string]float64 `json:"results"`
				Notes   map[string]string  `json:"notes"`
			}
			if err := json.Unmarshal(blob, &rep); err != nil {
				t.Fatal(err)
			}
			if got, want := rep.Notes["envelope_budget_met"], strconv.FormatBool(tc.met); got != want {
				t.Errorf("envelope_budget_met = %q, want %q", got, want)
			}
			if got := rep.Results["envelope_budget"]; got != budget {
				t.Errorf("envelope_budget = %v, want %v", got, budget)
			}
			if got := rep.Results["envelope_test_benign_pass"]; math.Abs(got-passPct/100) > 5e-5 {
				t.Errorf("envelope_test_benign_pass = %v, stdout says %v%%", got, passPct)
			}
		})
	}
}
