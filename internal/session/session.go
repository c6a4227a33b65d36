// Package session is the reusable per-connection wire front-end and
// stream engine shared by the single-node serving tier (internal/serve,
// shard role) and the sharded gateway tier (internal/cluster). Front
// (front.go) owns the connection itself: accept loop, Hello/Welcome
// handshake, frame read loop, protocol-error frames, the locked frame
// writer and the graceful drain. The Engine owns everything about a
// connection's sample streams that does not depend on the transport or
// on what "processing" means:
//
//   - the bounded drop-oldest ingress ring with a feature-buffer free
//     list and per-stream shed accounting (the backpressure model from
//     DESIGN §10),
//   - the control queue that carries stream opens/closes outside the
//     sheddable data path,
//   - the worker loop that coalesces whatever accumulated since its last
//     round into adaptive micro-batches and processes the touched streams
//     one after another,
//   - stream-table bookkeeping: duplicate-id/duplicate-app rejection,
//     unknown-stream accounting, ordered open→process→close rounds.
//
// The transport supplies a Handler: the serve shard plugs in the Scoring
// handler from this package (compiled-detector epoch capture, one
// monitor per stream, fused verdict+smoothing evaluation), while the cluster
// gateway plugs in a forwarder that relays each stream's samples to the
// backend shard the consistent-hash ring picked. Both tiers therefore
// run the identical hot path — one copy, pinned by the serve tests.
//
// Goroutine model: one reader goroutine calls Push/Open/Close; one
// worker goroutine runs Run and makes every Handler and Stream call, one
// at a time, so handler state needs no lock. Parallelism is per
// connection: each connection has its own worker. At the paper's 10 ms
// sampling period a round holds a few samples per stream, too little
// work to pay for a goroutine hand-off per stream.
package session

import (
	"fmt"
	"sync"
	"time"

	"twosmart/internal/telemetry"
)

// Batch is one stream's pending micro-batch, handed to Stream.Process.
// The slices are engine-owned and valid only for the duration of the
// call: Samples[i] (with client sequence Seqs[i], received at Ats[i]) is
// a recycled ring buffer that goes back on the free list as soon as
// Process returns. Handlers that retain samples must copy.
//
// Origins[i] is the upstream tier's unix-nano ingress stamp for the
// sample (0 when the agent talked to this process directly); DrainedAt
// is the single timestamp at which this round's ring drain happened.
// Both exist for trace hop attribution (internal/trace) and cost the
// unsampled path nothing beyond the slice append.
type Batch struct {
	Samples   [][]float64
	Seqs      []uint32
	Ats       []time.Time
	Origins   []int64
	DrainedAt time.Time
}

// Len returns the number of samples in the batch.
func (b Batch) Len() int { return len(b.Samples) }

// Stream is one open stream's processing state, produced by
// Handler.OpenStream and owned by the engine's worker goroutine.
type Stream interface {
	// Process handles one adaptive micro-batch in arrival order. An error
	// tears the whole session down (Run returns it).
	Process(b Batch) error
	// Close ends the stream; shed is how many of its queued samples the
	// ingress ring dropped under overload (they were never processed).
	Close(shed uint64) error
}

// Handler is the processing half a transport plugs into the engine.
// Its methods, and the methods of every Stream it opens, run on the
// engine's worker goroutine and never overlap.
type Handler interface {
	// OpenStream is called once per accepted stream open, after the
	// engine's duplicate-id and duplicate-app checks passed. An error
	// tears the session down.
	OpenStream(id uint32, app string) (Stream, error)
	// RoundEnd runs after every micro-batch round (including the final
	// drain round); transports flush their buffered output here so a
	// round's verdicts cost one syscall.
	RoundEnd() error
}

// RejectReason classifies per-stream protocol violations the engine
// handles without killing the session.
type RejectReason int

const (
	// RejectDupStream is an OpenStream for an id that is already open.
	RejectDupStream RejectReason = iota
	// RejectDupApp is an OpenStream for an app already streamed on this
	// session (app names the stream: the gateway routes by it and the
	// per-app metrics and sample-log records are keyed by it).
	RejectDupApp
	// RejectUnknownClose is a CloseStream for an id that is not open.
	RejectUnknownClose
	// RejectUnknownSample is a queued sample for an id that is not open;
	// the sample is dropped and its buffer recycled.
	RejectUnknownSample
)

// String returns the reason's wire-log spelling.
func (r RejectReason) String() string {
	switch r {
	case RejectDupStream:
		return "duplicate stream"
	case RejectDupApp:
		return "duplicate app"
	case RejectUnknownClose:
		return "close of unopened stream"
	case RejectUnknownSample:
		return "sample for unopened stream"
	default:
		return fmt.Sprintf("reject(%d)", int(r))
	}
}

// Config configures one stream engine (one per connection).
type Config struct {
	// Handler supplies per-stream processing. Required.
	Handler Handler
	// QueueDepth bounds the ingress ring; beyond it the oldest queued
	// samples are shed (default 4096).
	QueueDepth int
	// OnReject, when non-nil, observes per-stream protocol violations
	// (duplicate open, unknown close, sample for an unopened stream).
	// Called on the worker goroutine; app is empty when unknown.
	OnReject func(id uint32, app string, reason RejectReason)
	// BatchSize, when non-nil, observes every non-empty round's drained
	// sample count — the adaptive micro-batch size distribution.
	BatchSize telemetry.Histogram
}

func (c Config) fill() (Config, error) {
	if c.Handler == nil {
		return c, fmt.Errorf("session: nil handler")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("session: queue depth %d below 1", c.QueueDepth)
	}
	if c.BatchSize == nil {
		c.BatchSize = telemetry.NopHistogram
	}
	return c, nil
}

// ctrl is a reader→worker control message (stream open/close), routed
// through a queue separate from the sample ring so load-shedding can
// never drop one.
type ctrl struct {
	open   bool
	stream uint32
	app    string
}

// entry is the engine's bookkeeping for one open stream: the handler's
// state plus the reusable per-round micro-batch slices.
type entry struct {
	id  uint32
	app string
	h   Stream

	// pending micro-batch, refilled each round; samples hold ring-owned
	// buffers that are recycled after Process returns.
	samples [][]float64
	seqs    []uint32
	ats     []time.Time
	origins []int64
}

// Engine is one connection's stream pump. The reader goroutine feeds it
// (Push, Open, Close); the worker goroutine drives it (Run).
type Engine struct {
	cfg Config
	q   *ring

	kick chan struct{} // worker wake-up, capacity 1

	ctrlMu sync.Mutex
	ctrls  []ctrl

	streams map[uint32]*entry   // worker-owned after construction
	apps    map[string]struct{} // apps of the open streams, worker-owned
	drain   []item              // reusable drain buffer
	touched []*entry            // reusable per-round stream list
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     filled,
		q:       newRing(filled.QueueDepth),
		kick:    make(chan struct{}, 1),
		streams: make(map[uint32]*entry),
		apps:    make(map[string]struct{}),
	}, nil
}

// Push copies one sample into the ingress ring, waking the worker. It
// reports whether the ring shed its oldest queued sample to make room —
// the caller owns the shed telemetry. origin is the upstream tier's
// unix-nano ingress stamp (wire.Sample.IngressNanos; 0 for direct
// agents), threaded through to Batch.Origins for trace attribution.
// Safe to call from the reader goroutine concurrently with Run.
func (e *Engine) Push(stream, seq uint32, origin int64, at time.Time, features []float64) (shed bool) {
	shed = e.q.push(stream, seq, origin, at, features)
	e.wake()
	return shed
}

// Open enqueues a stream-open control message. Unlike samples, control
// messages are never shed.
func (e *Engine) Open(stream uint32, app string) {
	e.enqueueCtrl(ctrl{open: true, stream: stream, app: app})
}

// Close enqueues a stream-close control message.
func (e *Engine) Close(stream uint32) {
	e.enqueueCtrl(ctrl{stream: stream})
}

func (e *Engine) enqueueCtrl(m ctrl) {
	e.ctrlMu.Lock()
	e.ctrls = append(e.ctrls, m)
	e.ctrlMu.Unlock()
	e.wake()
}

func (e *Engine) wake() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// ShedCounts returns the ring's total and per-stream shed-sample counts.
func (e *Engine) ShedCounts(stream uint32) (total, forStream uint64) {
	return e.q.shedCounts(stream)
}

// Run is the worker loop: every wake-up it processes one adaptive
// micro-batch round; when done closes it runs a final round over
// whatever is still queued (the graceful-drain flush) and returns. A
// handler error aborts the loop and is returned; the transport tears the
// connection down.
func (e *Engine) Run(done <-chan struct{}) error {
	for {
		select {
		case <-e.kick:
			if err := e.round(); err != nil {
				return err
			}
		case <-done:
			return e.round()
		}
	}
}

// round runs one micro-batch round: take the control queue and drain the
// ring as one snapshot, apply stream opens, process the touched streams
// in first-touch order, recycle the buffers, then apply stream closes and
// let the handler flush.
//
// The snapshot holds ctrlMu across the drain, so a control message the
// reader enqueues while the ring drains waits for the next round, and so
// do the samples it pushes after it. Every open the reader enqueued
// before a drained sample is therefore applied before that sample is
// processed, and every close is applied after all of its stream's
// earlier samples.
func (e *Engine) round() error {
	e.ctrlMu.Lock()
	ctrls := e.ctrls
	e.ctrls = nil
	e.drain = e.q.drainInto(e.drain[:0])
	e.ctrlMu.Unlock()

	for _, m := range ctrls {
		if m.open {
			if err := e.openStream(m.stream, m.app); err != nil {
				return err
			}
		}
	}

	if len(e.drain) > 0 {
		drainedAt := time.Now()
		e.cfg.BatchSize.Observe(float64(len(e.drain)))
		e.touched = e.touched[:0]
		for i := range e.drain {
			it := &e.drain[i]
			st := e.streams[it.stream]
			if st == nil {
				e.reject(it.stream, "", RejectUnknownSample)
				e.q.recycle(it.features)
				continue
			}
			if len(st.samples) == 0 {
				e.touched = append(e.touched, st)
			}
			st.samples = append(st.samples, it.features)
			st.seqs = append(st.seqs, it.seq)
			st.ats = append(st.ats, it.at)
			st.origins = append(st.origins, it.origin)
		}
		var err error
		for _, st := range e.touched {
			if err = st.h.Process(Batch{Samples: st.samples, Seqs: st.seqs, Ats: st.ats, Origins: st.origins, DrainedAt: drainedAt}); err != nil {
				break
			}
		}
		for _, st := range e.touched {
			for _, buf := range st.samples {
				e.q.recycle(buf)
			}
			st.samples = st.samples[:0]
			st.seqs = st.seqs[:0]
			st.ats = st.ats[:0]
			st.origins = st.origins[:0]
		}
		if err != nil {
			return err
		}
	}

	for _, m := range ctrls {
		if !m.open {
			if err := e.closeStream(m.stream); err != nil {
				return err
			}
		}
	}
	return e.cfg.Handler.RoundEnd()
}

func (e *Engine) reject(id uint32, app string, reason RejectReason) {
	if e.cfg.OnReject != nil {
		e.cfg.OnReject(id, app, reason)
	}
}

func (e *Engine) openStream(id uint32, app string) error {
	if _, dup := e.streams[id]; dup {
		e.reject(id, app, RejectDupStream)
		return nil
	}
	if _, dup := e.apps[app]; dup {
		e.reject(id, app, RejectDupApp)
		return nil
	}
	h, err := e.cfg.Handler.OpenStream(id, app)
	if err != nil {
		return err
	}
	e.streams[id] = &entry{id: id, app: app, h: h}
	e.apps[app] = struct{}{}
	return nil
}

func (e *Engine) closeStream(id uint32) error {
	st, ok := e.streams[id]
	if !ok {
		e.reject(id, "", RejectUnknownClose)
		return nil
	}
	delete(e.streams, id)
	delete(e.apps, st.app)
	_, shed := e.q.shedCounts(id)
	return st.h.Close(shed)
}
