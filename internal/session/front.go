package session

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// HandshakeTimeout bounds how long either side of a fresh connection
// waits for the other's half of the Hello/Welcome exchange.
const HandshakeTimeout = 10 * time.Second

// BatchSizeBuckets is the layout of a tier's batch-size histogram (the
// Metrics.BatchSize instrument): powers of two up to the default queue
// depth.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// FrontMetrics are a tier's connection-level instruments, named by the
// tier (serve_*, cluster_*). Every field must be set; a tier without a
// use for one passes the telemetry package's no-op instrument.
type FrontMetrics struct {
	ConnsActive telemetry.Gauge     // connections open right now
	ConnsTotal  telemetry.Counter   // connections accepted
	Reaped      telemetry.Counter   // connections closed by the idle timeout
	Samples     telemetry.Counter   // samples accepted into the ring
	Shed        telemetry.Counter   // samples the ring shed under overload
	ProtoErrs   telemetry.Counter   // protocol violations answered with an Error frame
	BatchSize   telemetry.Histogram // samples drained per engine round
}

// Front is the wire-protocol front-end both serving tiers run on: the
// accept loop, the Hello/Welcome handshake, the frame read loop feeding
// one Engine per connection, the mapping of protocol violations onto
// wire Error frames, the connection's locked frame writer, and the
// graceful drain. A tier supplies only what differs: its Welcome, its
// Handler, its heartbeat echo and its instruments.
//
// Per connection, one reader goroutine runs the read loop and one worker
// goroutine runs Engine.Run. When the Serve context is cancelled the read
// side is shut, everything already queued is processed and flushed, and
// the agent gets an Error{CodeDraining} notice before the close. With
// IdleTimeout set, a connection that sends no frame for that long is
// reaped the same way, with Error{CodeIdle}.
type Front struct {
	// Tier names the tier in Error messages ("server", "gateway").
	Tier string
	// Welcome answers a valid Hello: the Welcome frame to send, or a
	// non-nil Error frame that refuses the connection.
	Welcome func() (wire.Welcome, *wire.Error)
	// Attach builds the handler for a connection whose handshake
	// succeeded, given the agent's name and the Welcome it was sent.
	// release, when non-nil, runs after the connection's final flush.
	Attach func(c *Conn, agent string, w wire.Welcome) (h Handler, release func(), err error)
	// Heartbeat, when non-nil, rewrites a Heartbeat before it is echoed;
	// nil echoes it verbatim.
	Heartbeat func(wire.Heartbeat) wire.Heartbeat
	// QueueDepth bounds each connection's Engine ring.
	QueueDepth int
	// IdleTimeout, when positive, reaps connections silent that long.
	IdleTimeout time.Duration
	// Metrics are the tier's instruments; Log receives connection
	// lifecycle events. Both are required.
	Metrics FrontMetrics
	Log     *slog.Logger
}

// Serve accepts connections on ln until ctx is cancelled, then closes
// ln, waits for every connection to drain and returns nil. Any other
// accept error is returned once the open connections have ended.
func (f *Front) Serve(ctx context.Context, ln net.Listener) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				f.Log.Info("draining", "tier", f.Tier, "reason", context.Cause(ctx))
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.handle(ctx, nc)
		}()
	}
}

// Conn is one agent connection's write side as a tier's handler sees
// it. Frames from the worker, the read loop and any tier goroutine are
// serialized under one lock and reach the agent at the next Flush.
type Conn struct {
	f  *Front
	nc net.Conn
	r  *wire.Reader

	wmu sync.Mutex
	w   *wire.Writer
}

// Write buffers one frame. A write error is sticky in the buffered
// writer and is returned by the next Flush.
func (c *Conn) Write(fr wire.Frame) {
	c.wmu.Lock()
	c.w.Write(fr)
	c.wmu.Unlock()
}

// Flush pushes the buffered frames to the agent.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Flush()
}

func (f *Front) handle(ctx context.Context, nc net.Conn) {
	m := f.Metrics
	m.ConnsTotal.Inc()
	m.ConnsActive.Add(1)
	defer m.ConnsActive.Add(-1)
	defer nc.Close()
	log := f.Log.With("remote", nc.RemoteAddr().String())

	c := &Conn{f: f, nc: nc, w: wire.NewWriter(nc)}
	agent, welcome, err := c.handshake()
	if err != nil {
		log.Warn("handshake", "err", err)
		return
	}
	h, release, err := f.Attach(c, agent, welcome)
	if err != nil {
		log.Error("attach", "err", err)
		return
	}
	if release != nil {
		defer release()
	}
	eng, err := New(Config{
		Handler:    h,
		QueueDepth: f.QueueDepth,
		OnReject:   c.reject,
		BatchSize:  m.BatchSize,
	})
	if err != nil {
		log.Error("session", "err", err)
		return
	}

	// Drain watcher: a cancelled Serve closes the read side so the reader
	// unblocks; everything already queued is still processed.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			closeRead(nc)
		case <-stopWatch:
		}
	}()

	readerDone := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		if err := eng.Run(readerDone); err != nil {
			// Typically a write to a dead agent; closing unblocks the reader.
			log.Warn("connection worker", "err", err)
			nc.Close()
		}
	}()
	rerr := c.readLoop(eng, int(welcome.NumFeatures))
	close(readerDone)
	<-workerDone

	reaped := f.IdleTimeout > 0 && ctx.Err() == nil && errors.Is(rerr, os.ErrDeadlineExceeded)
	if reaped {
		m.Reaped.Inc()
		// Best-effort notice so a half-alive agent can tell a reap from a
		// network failure; queued samples were already processed.
		c.Write(wire.Error{Code: wire.CodeIdle,
			Msg: fmt.Sprintf("no frames for %s, reaping idle connection", f.IdleTimeout)})
	}
	if ctx.Err() != nil {
		// Best-effort notice so agents can distinguish drain from a crash.
		c.Write(wire.Error{Code: wire.CodeDraining, Msg: f.Tier + " draining"})
	}
	c.Flush()
	switch {
	case reaped:
		log.Info("connection reaped", "idle_timeout", f.IdleTimeout)
	case rerr != nil && !errors.Is(rerr, io.EOF) && ctx.Err() == nil:
		log.Warn("connection closed", "err", rerr)
	default:
		log.Info("connection closed")
	}
}

// closeRead half-closes the connection so a blocked reader sees EOF while
// queued output can still be written.
func closeRead(nc net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	nc.SetReadDeadline(time.Now())
}

// refuse sends a fatal Error frame and returns err for the caller to end
// the connection with.
func (c *Conn) refuse(e wire.Error, err error) error {
	c.Write(e)
	c.Flush()
	return err
}

func (c *Conn) handshake() (agent string, w wire.Welcome, err error) {
	c.nc.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	r := wire.NewReader(c.nc)
	f, err := r.Next()
	if err != nil {
		return "", w, err
	}
	hello, ok := f.(wire.Hello)
	if !ok {
		return "", w, c.refuse(wire.Error{Code: wire.CodeProtocol, Msg: "expected Hello"},
			fmt.Errorf("first frame is %T, want Hello", f))
	}
	if hello.Proto != wire.ProtoVersion {
		return "", w, c.refuse(wire.Error{Code: wire.CodeVersion,
			Msg: fmt.Sprintf("protocol v%d unsupported, %s speaks v%d", hello.Proto, c.f.Tier, wire.ProtoVersion)},
			fmt.Errorf("client protocol v%d, want v%d", hello.Proto, wire.ProtoVersion))
	}
	w, refusal := c.f.Welcome()
	if refusal != nil {
		return "", w, c.refuse(*refusal, fmt.Errorf("refused: %s", refusal.Msg))
	}
	c.nc.SetReadDeadline(time.Time{})
	c.r = r
	c.Write(w)
	return hello.Agent, w, c.Flush()
}

// readLoop parses frames until EOF, a read error, an idle-timeout reap
// or a protocol violation, feeding samples into the engine's ring and
// stream opens/closes into its control queue.
func (c *Conn) readLoop(eng *Engine, numFeatures int) error {
	m := c.f.Metrics
	idle := c.f.IdleTimeout
	var lastArm time.Time
	for {
		// Arm the idle deadline lazily — re-arming costs a poller update,
		// so refresh only after a quarter of the budget has elapsed. Any
		// inbound frame (samples, opens, heartbeats) pushes it out; a
		// connection that stays silent past IdleTimeout fails the read
		// with os.ErrDeadlineExceeded and is reaped by the caller.
		if idle > 0 {
			if now := time.Now(); now.Sub(lastArm) > idle/4 {
				c.nc.SetReadDeadline(now.Add(idle))
				lastArm = now
			}
		}
		f, err := c.r.Next()
		if err != nil {
			return err
		}
		switch fr := f.(type) {
		case wire.Sample:
			if len(fr.Features) != numFeatures {
				m.ProtoErrs.Inc()
				return c.refuse(wire.Error{Code: wire.CodeBadFeatures,
					Msg: fmt.Sprintf("sample has %d features, model wants %d", len(fr.Features), numFeatures)},
					fmt.Errorf("sample width %d, want %d", len(fr.Features), numFeatures))
			}
			m.Samples.Inc()
			if eng.Push(fr.Stream, fr.Seq, int64(fr.IngressNanos), time.Now(), fr.Features) {
				m.Shed.Inc()
			}
		case wire.OpenStream:
			eng.Open(fr.Stream, fr.App)
		case wire.CloseStream:
			eng.Close(fr.Stream)
		case wire.Heartbeat:
			if c.f.Heartbeat != nil {
				fr = c.f.Heartbeat(fr)
			}
			c.Write(fr)
			c.Flush()
		default:
			m.ProtoErrs.Inc()
			return c.refuse(wire.Error{Code: wire.CodeProtocol, Msg: fmt.Sprintf("unexpected frame type 0x%02x", f.Type())},
				fmt.Errorf("unexpected frame %T", f))
		}
	}
}

// reject maps the engine's per-stream protocol violations onto wire
// Error frames; none of them end the connection.
func (c *Conn) reject(id uint32, app string, reason RejectReason) {
	c.f.Metrics.ProtoErrs.Inc()
	switch reason {
	case RejectDupStream:
		c.Write(wire.Error{Code: wire.CodeBadStream, Msg: fmt.Sprintf("stream %d already open", id)})
	case RejectDupApp:
		c.Write(wire.Error{Code: wire.CodeBadStream,
			Msg: fmt.Sprintf("app %q already streamed on this connection", app)})
	case RejectUnknownClose:
		c.Write(wire.Error{Code: wire.CodeBadStream, Msg: fmt.Sprintf("stream %d not open", id)})
	case RejectUnknownSample:
		// Counted only: a shed OpenStream cannot happen (control frames
		// are unsheddable), so this is an agent bug, not worth a frame
		// per sample.
	}
}
