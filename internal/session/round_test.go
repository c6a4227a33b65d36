package session

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nopHandler opens streams that do nothing, so a round costs only the
// engine's own work: snapshot, per-stream assembly, recycling.
type nopHandler struct{}

func (nopHandler) OpenStream(uint32, string) (Stream, error) { return nopStream{}, nil }
func (nopHandler) RoundEnd() error                           { return nil }

type nopStream struct{}

func (nopStream) Process(Batch) error { return nil }
func (nopStream) Close(uint64) error  { return nil }

// openedEngine returns an engine with streams 0..n-1 already open.
func openedEngine(tb testing.TB, h Handler, n int) *Engine {
	tb.Helper()
	e, err := New(Config{Handler: h})
	if err != nil {
		tb.Fatal(err)
	}
	for s := 0; s < n; s++ {
		e.Open(uint32(s), fmt.Sprintf("app%d", s))
	}
	if err := e.round(); err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestEngineRoundAllocs pins the round's fixed cost: once the ring's free
// list and the per-stream batch slices have grown, a round over 32
// streams with one sample each allocates nothing.
func TestEngineRoundAllocs(t *testing.T) {
	const streams = 32
	e := openedEngine(t, nopHandler{}, streams)
	fv := []float64{1, 2, 3, 4}
	at := time.Now()
	round := func() {
		for s := uint32(0); s < streams; s++ {
			e.Push(s, 0, 0, at, fv)
		}
		if err := e.round(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm-up
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm round over %d streams allocates %v times, want 0", streams, allocs)
	}
}

// overlapHandler counts the handler and stream calls in flight and keeps
// the highest count seen.
type overlapHandler struct {
	inFlight, peak atomic.Int32
	processed      atomic.Int64
}

func (h *overlapHandler) enter() {
	n := h.inFlight.Add(1)
	for {
		p := h.peak.Load()
		if n <= p || h.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (h *overlapHandler) leave() { h.inFlight.Add(-1) }

func (h *overlapHandler) OpenStream(uint32, string) (Stream, error) {
	h.enter()
	defer h.leave()
	return overlapStream{h}, nil
}

func (h *overlapHandler) RoundEnd() error {
	h.enter()
	defer h.leave()
	return nil
}

type overlapStream struct{ h *overlapHandler }

func (st overlapStream) Process(b Batch) error {
	st.h.enter()
	defer st.h.leave()
	// Linger so that a second call, if the engine made one alongside,
	// would be in flight at the same time.
	time.Sleep(50 * time.Microsecond)
	st.h.processed.Add(int64(b.Len()))
	return nil
}

func (st overlapStream) Close(uint64) error {
	st.h.enter()
	defer st.h.leave()
	return nil
}

// TestEngineProcessNeverOverlaps pins the property the tiers' reusable
// per-connection scratch space (the sample-log record batches) rests on:
// within one engine, Process calls — and every other handler call —
// never run at the same time, even when a round touches many streams.
func TestEngineProcessNeverOverlaps(t *testing.T) {
	const streams, perStream = 16, 200
	h := &overlapHandler{}
	e, err := New(Config{Handler: h, QueueDepth: streams * perStream})
	if err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan struct{})
	workerErr := make(chan error, 1)
	go func() { workerErr <- e.Run(readerDone) }()

	for s := uint32(0); s < streams; s++ {
		e.Open(s, fmt.Sprintf("app%d", s))
	}
	var wg sync.WaitGroup
	for s := uint32(0); s < streams; s++ {
		wg.Add(1)
		go func(s uint32) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				e.Push(s, uint32(i), 0, time.Now(), []float64{float64(s)})
			}
		}(s)
	}
	wg.Wait()
	for s := uint32(0); s < streams; s++ {
		e.Close(s)
	}
	close(readerDone)
	if err := <-workerErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := h.processed.Load(); got != streams*perStream {
		t.Fatalf("processed %d samples, want %d", got, streams*perStream)
	}
	if peak := h.peak.Load(); peak != 1 {
		t.Fatalf("%d handler calls in flight at once, want 1", peak)
	}
}

// BenchmarkEngineRound measures the engine's per-round overhead at the
// serving benchmark's shape: 200 open streams, rounds of 20 samples
// spread over 20 of them, a handler that does no work.
func BenchmarkEngineRound(b *testing.B) {
	const streams, perRound = 200, 20
	e := openedEngine(b, nopHandler{}, streams)
	fv := []float64{1, 2, 3, 4}
	at := time.Now()
	next := uint32(0)
	round := func() {
		for k := 0; k < perRound; k++ {
			e.Push(next, 0, 0, at, fv)
			next = (next + 1) % streams
		}
		if err := e.round(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < streams/perRound; i++ {
		round() // warm every stream's batch slices
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRound), "ns/sample")
}
