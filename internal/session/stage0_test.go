package session

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/telemetry"
)

// stage0Fixture fits an envelope over uniform benign rows in [0, 1)^4 and
// builds a batch of n samples where every third sample sits far outside
// the envelope and the rest inside it.
func stage0Fixture(t testing.TB, n int) (*anomaly.Envelope, Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	benign := make([][]float64, 64)
	for i := range benign {
		benign[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	env, err := anomaly.Train([]string{"a", "b", "c", "d"}, benign, anomaly.TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	b := Batch{DrainedAt: now}
	for i := 0; i < n; i++ {
		fv := []float64{0.5, 0.5, 0.5, 0.5}
		if i%3 == 0 {
			fv = []float64{50, 0.5, -50, 0.5}
		}
		b.Samples = append(b.Samples, fv)
		b.Seqs = append(b.Seqs, uint32(100+i))
		b.Ats = append(b.Ats, now.Add(-time.Duration(n-i)*time.Microsecond))
		b.Origins = append(b.Origins, 0)
	}
	return env, b
}

// TestStage0Split pins the filter's partition, its counters, and its
// 0 allocs per batch once warm.
func TestStage0Split(t *testing.T) {
	const n = 64
	env, b := stage0Fixture(t, n)
	reg := telemetry.New()
	if f := NewStage0(nil, 0, reg, "app"); f != nil {
		t.Fatal("nil envelope built a filter")
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "cascade_") {
		t.Fatalf("a node without a cascade exposes cascade families:\n%s", prom.String())
	}

	c := env.Compile()
	f := NewStage0(c, env.Threshold, reg, "app")
	mask, pass := f.Split(b)
	j := 0
	for i, short := range mask {
		if want := c.Score(b.Samples[i]) <= env.Threshold; short != want {
			t.Fatalf("sample %d short %v, want %v", i, short, want)
		}
		if short {
			continue
		}
		if &pass.Samples[j][0] != &b.Samples[i][0] || pass.Seqs[j] != b.Seqs[i] || !pass.Ats[j].Equal(b.Ats[i]) {
			t.Fatalf("pass sample %d is not batch sample %d", j, i)
		}
		j++
	}
	wantPass := n / 3
	if n%3 != 0 {
		wantPass++
	}
	if j != wantPass || pass.Len() != wantPass {
		t.Fatalf("passed %d (batch %d), want %d", j, pass.Len(), wantPass)
	}
	if !pass.DrainedAt.Equal(b.DrainedAt) {
		t.Fatal("pass batch lost DrainedAt")
	}
	if f.End.Before(f.Start) {
		t.Fatalf("stage-0 end %v before start %v", f.End, f.Start)
	}
	for name, want := range map[string]int{
		"cascade_short_total":                                    n - wantPass,
		"cascade_pass_total":                                     wantPass,
		"cascade_stage0_samples_total":                           n,
		telemetry.Label("cascade_app_short_total", "app", "app"): n - wantPass,
		telemetry.Label("cascade_app_pass_total", "app", "app"):  wantPass,
	} {
		if got := reg.Counter(name).Value(); got != uint64(want) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}

	// A batch with nothing to short-circuit passes through as itself.
	out := Batch{Samples: b.Samples[:1], Seqs: b.Seqs[:1], Ats: b.Ats[:1], Origins: b.Origins[:1]}
	if _, p := f.Split(out); p.Len() != 1 || &p.Origins[0] != &out.Origins[0] {
		t.Fatal("an all-pass batch was gathered instead of passed through")
	}

	if a := testing.AllocsPerRun(200, func() { f.Split(b) }); a != 0 {
		t.Fatalf("warm Split allocates %v per batch, want 0", a)
	}
}

// BenchmarkAnomalyPartition prices the stage-0 split of one 64-sample
// chunk, two thirds of it short-circuited: the envelope pass, the mask
// and pass-through gather, its clock reads and counter adds. Named to
// ride the CI bench gate's BenchmarkAnomaly pattern.
func BenchmarkAnomalyPartition(b *testing.B) {
	const n = 64
	env, batch := stage0Fixture(b, n)
	f := NewStage0(env.Compile(), env.Threshold, telemetry.New(), "bench-app")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Split(batch)
	}
}
