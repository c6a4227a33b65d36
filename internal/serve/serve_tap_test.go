package serve

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/monitor"
	"twosmart/internal/samplelog"
	"twosmart/internal/session"
)

// TestTapSampleLogAllocs pins the tap path with a sample log attached:
// the connection reuses one record batch across chunks, and the log
// copies features into its own recycled buffers, so a warm tap allocates
// nothing per chunk.
func TestTapSampleLogAllocs(t *testing.T) {
	det, data := fixtures(t)
	sl, err := samplelog.OpenWriter(samplelog.WriterConfig{Dir: t.TempDir(), QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	srv, err := New(Config{Detector: det, SampleLog: sl, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{s: srv}

	const n = 16
	ch := session.TapChunk{
		App:      "tap-app",
		Stream:   1,
		Version:  1,
		Ats:      make([]time.Time, n),
		Samples:  samplesFrom(data, n),
		Verdicts: make([]core.Verdict, n),
		Scores:   make([]float64, n),
		Events:   make([]monitor.Event, n),
	}
	// Warm-up: fill the log's bounded buffer pool and the record batch.
	for i := 0; i < 1000; i++ {
		c.tap(ch)
	}
	if allocs := testing.AllocsPerRun(200, func() { c.tap(ch) }); allocs != 0 {
		t.Fatalf("tap of a %d-sample chunk allocates %v times, want 0", n, allocs)
	}
}
