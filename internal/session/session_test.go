package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeHandler records every engine callback so tests can pin the
// engine's ordering and accounting without any scoring machinery.
type fakeHandler struct {
	mu      sync.Mutex
	streams map[uint32]*fakeStream
	openErr error
	procErr error
	rounds  int
}

func newFakeHandler() *fakeHandler {
	return &fakeHandler{streams: make(map[uint32]*fakeStream)}
}

func (h *fakeHandler) OpenStream(id uint32, app string) (Stream, error) {
	if h.openErr != nil {
		return nil, h.openErr
	}
	st := &fakeStream{h: h, id: id, app: app}
	h.mu.Lock()
	h.streams[id] = st
	h.mu.Unlock()
	return st, nil
}

func (h *fakeHandler) RoundEnd() error {
	h.mu.Lock()
	h.rounds++
	h.mu.Unlock()
	return nil
}

func (h *fakeHandler) stream(id uint32) *fakeStream {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streams[id]
}

type fakeStream struct {
	h   *fakeHandler
	id  uint32
	app string

	mu       sync.Mutex
	seqs     []uint32
	features [][]float64 // copied: the engine recycles batch buffers
	closed   bool
	shed     uint64
}

func (st *fakeStream) Process(b Batch) error {
	if st.h.procErr != nil {
		return st.h.procErr
	}
	if len(b.Seqs) != b.Len() || len(b.Ats) != b.Len() {
		return fmt.Errorf("ragged batch: %d samples, %d seqs, %d ats", b.Len(), len(b.Seqs), len(b.Ats))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range b.Samples {
		st.seqs = append(st.seqs, b.Seqs[i])
		cp := make([]float64, len(b.Samples[i]))
		copy(cp, b.Samples[i])
		st.features = append(st.features, cp)
	}
	return nil
}

func (st *fakeStream) Close(shed uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.shed = shed
	return nil
}

// run drives the engine through exactly one final round: everything
// already pushed/enqueued is handled in open→process→close order, then
// Run returns.
func run(t *testing.T, e *Engine) {
	t.Helper()
	done := make(chan struct{})
	close(done)
	if err := e.Run(done); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineOpenProcessClose(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	e.Open(2, "appB")
	for i := 0; i < 5; i++ {
		e.Push(1, uint32(i), 0, time.Now(), []float64{float64(i), 1})
		e.Push(2, uint32(i), 0, time.Now(), []float64{float64(i), 2})
	}
	e.Close(1)
	e.Close(2)
	run(t, e)

	for _, id := range []uint32{1, 2} {
		st := h.stream(id)
		if st == nil {
			t.Fatalf("stream %d never opened", id)
		}
		if !st.closed {
			t.Fatalf("stream %d not closed", id)
		}
		if len(st.seqs) != 5 {
			t.Fatalf("stream %d processed %d samples, want 5", id, len(st.seqs))
		}
		for i, seq := range st.seqs {
			if seq != uint32(i) {
				t.Fatalf("stream %d seq[%d] = %d, want %d (order not preserved)", id, i, seq, i)
			}
			if st.features[i][0] != float64(i) || st.features[i][1] != float64(id) {
				t.Fatalf("stream %d sample %d corrupted: %v", id, i, st.features[i])
			}
		}
	}
	if h.rounds == 0 {
		t.Fatal("RoundEnd never called")
	}
}

func TestEngineRejects(t *testing.T) {
	h := newFakeHandler()
	var mu sync.Mutex
	var got []string
	e, err := New(Config{
		Handler: h,
		OnReject: func(id uint32, app string, reason RejectReason) {
			mu.Lock()
			got = append(got, fmt.Sprintf("%d/%s/%s", id, app, reason))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	e.Open(1, "appB")                         // duplicate stream id
	e.Open(2, "appA")                         // duplicate app
	e.Push(9, 0, 0, time.Now(), []float64{1}) // unknown stream
	e.Close(7)                                // unknown close
	run(t, e)

	want := []string{
		"1/appB/duplicate stream",
		"2/appA/duplicate app",
		"9//sample for unopened stream",
		"7//close of unopened stream",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("rejects = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reject[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if st := h.stream(1); st == nil || st.app != "appA" {
		t.Fatal("original stream 1 should survive the duplicate opens")
	}
}

func TestEngineShedAccounting(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	shed := 0
	for i := 0; i < 10; i++ {
		if e.Push(1, uint32(i), 0, time.Now(), []float64{float64(i)}) {
			shed++
		}
	}
	if shed != 6 {
		t.Fatalf("Push reported %d sheds, want 6 (depth 4, 10 pushes)", shed)
	}
	if total, forStream := e.ShedCounts(1); total != 6 || forStream != 6 {
		t.Fatalf("ShedCounts = (%d, %d), want (6, 6)", total, forStream)
	}
	e.Close(1)
	run(t, e)

	st := h.stream(1)
	if st.shed != 6 {
		t.Fatalf("Close got shed=%d, want 6", st.shed)
	}
	// The survivors are the newest 4, in order.
	if len(st.seqs) != 4 {
		t.Fatalf("processed %d samples, want 4", len(st.seqs))
	}
	for i, seq := range st.seqs {
		if want := uint32(6 + i); seq != want {
			t.Fatalf("survivor[%d] = seq %d, want %d (drop-oldest violated)", i, seq, want)
		}
	}
}

func TestEngineHandlerErrors(t *testing.T) {
	boom := errors.New("boom")

	h := newFakeHandler()
	h.openErr = boom
	e, _ := New(Config{Handler: h})
	e.Open(1, "appA")
	done := make(chan struct{})
	close(done)
	if err := e.Run(done); !errors.Is(err, boom) {
		t.Fatalf("Run after open error = %v, want %v", err, boom)
	}

	h = newFakeHandler()
	h.procErr = boom
	e, _ = New(Config{Handler: h})
	e.Open(1, "appA")
	e.Push(1, 0, 0, time.Now(), []float64{1})
	if err := e.Run(done); !errors.Is(err, boom) {
		t.Fatalf("Run after process error = %v, want %v", err, boom)
	}
}

// TestEngineConcurrentProducer runs the real two-goroutine topology: a
// reader pushing samples and controls against a running worker loop.
// Every sample must be either processed in order or shed — never both,
// never lost.
func TestEngineConcurrentProducer(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	const streams, perStream = 4, 2000
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
				e.Push(s, uint32(i), 0, time.Now(), []float64{float64(s), float64(i)})
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

	for s := uint32(0); s < streams; s++ {
		st := h.stream(s)
		if st == nil || !st.closed {
			t.Fatalf("stream %d missing or not closed", s)
		}
		if got := uint64(len(st.seqs)) + st.shed; got != perStream {
			t.Fatalf("stream %d: processed %d + shed %d = %d, want %d",
				s, len(st.seqs), st.shed, got, perStream)
		}
		last := -1
		for i, seq := range st.seqs {
			if int(seq) <= last {
				t.Fatalf("stream %d: seq %d at position %d not increasing (prev %d)", s, seq, i, last)
			}
			last = int(seq)
			if st.features[i][0] != float64(s) || st.features[i][1] != float64(seq) {
				t.Fatalf("stream %d sample %d corrupted: %v", s, i, st.features[i])
			}
		}
	}
}

// orderHandler logs every open, processed sample and close in the order
// the engine delivers them. On stream 1's open it plays a reader that
// races the worker: it opens stream 2, queues two samples for it and
// closes it, all while the worker is inside stream 1's round.
type orderHandler struct {
	eng     *Engine
	mu      sync.Mutex
	log     []string
	closed2 chan struct{}
}

func (h *orderHandler) add(s string) {
	h.mu.Lock()
	h.log = append(h.log, s)
	h.mu.Unlock()
}

func (h *orderHandler) OpenStream(id uint32, app string) (Stream, error) {
	h.add(fmt.Sprintf("open %d", id))
	if id == 1 {
		h.eng.Open(2, "appB")
		h.eng.Push(2, 0, 0, time.Now(), []float64{2})
		h.eng.Push(2, 1, 0, time.Now(), []float64{2})
		h.eng.Close(2)
	}
	return orderStream{h: h, id: id}, nil
}

func (h *orderHandler) RoundEnd() error { return nil }

type orderStream struct {
	h  *orderHandler
	id uint32
}

func (st orderStream) Process(b Batch) error {
	for _, seq := range b.Seqs {
		st.h.add(fmt.Sprintf("sample %d/%d", st.id, seq))
	}
	return nil
}

func (st orderStream) Close(uint64) error {
	st.h.add(fmt.Sprintf("close %d", st.id))
	if st.id == 2 {
		close(st.h.closed2)
	}
	return nil
}

// TestEngineOpenBeforeFirstSample pins the round order: an open enqueued
// before a sample is applied before that sample is processed, even when
// both land while the worker is already mid-round, and a close never
// overtakes its stream's earlier samples.
func TestEngineOpenBeforeFirstSample(t *testing.T) {
	h := &orderHandler{closed2: make(chan struct{})}
	var mu sync.Mutex
	var rejects []string
	e, err := New(Config{Handler: h, OnReject: func(_ uint32, _ string, reason RejectReason) {
		mu.Lock()
		rejects = append(rejects, reason.String())
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	h.eng = e
	readerDone := make(chan struct{})
	workerErr := make(chan error, 1)
	go func() { workerErr <- e.Run(readerDone) }()
	e.Open(1, "appA")
	select {
	case <-h.closed2:
	case <-time.After(10 * time.Second):
		t.Fatal("stream 2 never closed")
	}
	close(readerDone)
	if err := <-workerErr; err != nil {
		t.Fatalf("Run: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(rejects) != 0 {
		t.Fatalf("rejects=%v, want none", rejects)
	}
	want := []string{"open 1", "open 2", "sample 2/0", "sample 2/1", "close 2"}
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.log) != fmt.Sprint(want) {
		t.Fatalf("engine delivered %v, want %v", h.log, want)
	}
}
