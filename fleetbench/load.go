package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twosmart/internal/wire"
)

// loadPlan is one open-loop load phase. Every connection stands for a
// concentrating host agent: it multiplexes streams app streams, each
// sampling every period, staggered evenly across the period so the
// connection's offered rate is smooth. Samples are sent on an
// intended-time schedule regardless of how fast verdicts come back.
type loadPlan struct {
	addr    string
	agent   string        // agent-name prefix; also keys app names
	conns   int           // agent connections
	streams int           // concurrent stream slots per connection
	period  time.Duration // per-stream sampling period
	// life is how many samples one stream incarnation carries before it
	// closes and its slot reopens under a fresh stream id and app name;
	// 0 keeps every stream open for the whole phase.
	life int
	dur  time.Duration // send window
	// warm excludes samples intended in the first warm of the window
	// from the latency, miss and lag statistics (they are still sent,
	// counted and checked).
	warm time.Duration
	// window splits the measured part of the phase into statistics
	// windows (0 = one window).
	window time.Duration
	// deadline is the per-sample latency limit that defines a miss.
	deadline time.Duration
	// features returns the feature vector of sample seq of stream id on
	// connection conn. It must be deterministic: the gate recomputes it.
	features func(conn int, id, seq uint32) []float64
}

// offered is the plan's offered rate in samples per second.
func (p loadPlan) offered() float64 {
	return float64(p.conns*p.streams) / p.period.Seconds()
}

// streamResult is the agent's account of one stream incarnation.
type streamResult struct {
	conn  int
	id    uint32
	app   string
	sent  uint32 // samples sent
	first uint32 // first seq sent (non-zero for staggered first incarnations)

	got     uint32   // verdicts received
	missing []uint32 // sent seqs that never got a verdict, ascending
	hash    uint64   // running hash over received verdicts, in order
	sums    int      // StreamSummary frames received
	summary wire.StreamSummary
	order   string // non-empty when verdicts arrived duplicated or out of order
}

// window holds the statistics of one slice of a phase, keyed by the
// samples' intended send times.
type window struct {
	measured uint64  // samples sent
	onTime   uint64  // of them, verdicted within the deadline
	lat      []int64 // ns from intended send to verdict decoded
	lag      []int64 // ns from intended to actual send
}

func (w *window) add(o *window) {
	w.measured += o.measured
	w.onTime += o.onTime
	w.lat = append(w.lat, o.lat...)
	w.lag = append(w.lag, o.lag...)
}

func (w *window) sort() {
	sort.Slice(w.lat, func(i, j int) bool { return w.lat[i] < w.lat[j] })
	sort.Slice(w.lag, func(i, j int) bool { return w.lag[i] < w.lag[j] })
}

func (w *window) miss() float64 {
	if w.measured == 0 {
		return 0
	}
	return float64(w.measured-w.onTime) / float64(w.measured)
}

// loadResult aggregates one phase across its connections.
type loadResult struct {
	plan    loadPlan
	welcome wire.Welcome
	streams []*streamResult

	sent     uint64   // samples sent
	verdicts uint64   // verdicts received
	all      window   // every measured sample, sorted
	windows  []window // the same samples by statistics window, sorted
	// backlog samples sent - verdicted, one point per backlogEvery; tells
	// a stable queue from a growing one.
	backlog []int64
}

const backlogEvery = 50 * time.Millisecond

// sendTick is the sender's wake-up period: every tick it sends what has
// fallen due on every connection and flushes each.
const sendTick = time.Millisecond

// openLead is how far ahead of its first sample a stream incarnation is
// opened: an agent announces an app when it starts watching it, and
// takes the first HPC sample 20 sampling periods later. The lead is this
// long because the serving tier drops a stream's first sample when the
// open and the sample reach one engine round together (the open is
// applied only in the next round); with a one-period lead that happened
// whenever a reader or the generator stalled for 10 ms.
const openLead = 200 * time.Millisecond

// runLoad drives one phase and returns once every stream's summary has
// arrived (or a connection failed). The schedule starts at t0, which
// must leave time to dial and to open the first streams openLead ahead.
func runLoad(ctx context.Context, p loadPlan, t0 time.Time) (*loadResult, error) {
	if p.window <= 0 {
		p.window = p.dur
	}
	conns := make([]*connLoad, p.conns)
	defer func() {
		for _, cl := range conns {
			if cl != nil {
				cl.c.close()
			}
		}
	}()
	for i := range conns {
		c, err := dialAgent(ctx, p.addr, fmt.Sprintf("%s-%d", p.agent, i))
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", p.addr, err)
		}
		conns[i] = newConnLoad(p, i, c, t0)
	}
	res := &loadResult{plan: p, welcome: conns[0].c.welcome}

	var wg sync.WaitGroup
	rxErrs := make([]error, len(conns))
	for i, cl := range conns {
		wg.Add(1)
		go func(i int, cl *connLoad) {
			defer wg.Done()
			rxErrs[i] = cl.rx.run()
		}(i, cl)
	}
	err := sendAll(ctx, conns)
	if err == nil {
		err = waitSummaries(ctx, conns)
	}
	if err != nil {
		for _, cl := range conns {
			cl.c.close() // unblocks the receivers
		}
	}
	wg.Wait()
	if err := errors.Join(append([]error{err}, rxErrs...)...); err != nil {
		return nil, err
	}

	for _, cl := range conns {
		res.sent += cl.sentTotal
		res.verdicts += cl.rx.verdicts.Load()
		res.streams = append(res.streams, cl.results()...)
		for i := range cl.windows {
			for len(res.windows) <= i {
				res.windows = append(res.windows, window{})
			}
			res.windows[i].add(&cl.windows[i])
			res.windows[i].add(&cl.rx.windows[i])
		}
		if len(res.backlog) < len(cl.backlog) {
			res.backlog = append(res.backlog, make([]int64, len(cl.backlog)-len(res.backlog))...)
		}
		for i, b := range cl.backlog {
			res.backlog[i] += b
		}
	}
	for i := range res.windows {
		res.all.add(&res.windows[i])
		res.windows[i].sort()
	}
	res.all.sort()
	return res, nil
}

// sendAll is the open-loop schedule: one goroutine wakes every tick,
// sends every sample that has fallen due on every connection, and
// flushes each connection.
func sendAll(ctx context.Context, conns []*connLoad) error {
	end := conns[0].end
	for {
		now := time.Now()
		for _, cl := range conns {
			if err := cl.sendDue(now); err != nil {
				return err
			}
		}
		if !now.Before(end) {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Until(now.Add(sendTick)))
	}
	for _, cl := range conns {
		if err := cl.closeAll(); err != nil {
			return err
		}
	}
	return nil
}

// waitSummaries waits until every connection has every stream summary.
func waitSummaries(ctx context.Context, conns []*connLoad) error {
	timeout := time.After(60 * time.Second)
	for _, cl := range conns {
		select {
		case <-cl.rx.done:
		case <-timeout:
			return fmt.Errorf("conn %d: stream summaries missing 60s after the last send", cl.idx)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// connLoad is one agent connection's schedule and accounts.
type connLoad struct {
	p    loadPlan
	idx  int
	c    *agentConn
	t0   time.Time
	end  time.Time
	cut  time.Time       // t0 + warm
	base []time.Duration // per-slot phase offset within the period

	// sender-owned
	j, jo     int // next schedule index to send / to open
	sent      map[uint32]*sendState
	order     []uint32 // stream ids in open order
	sentTotal uint64
	windows   []window
	backlog   []int64
	nextBL    time.Time

	rx *receiver
}

type sendState struct {
	app   string
	first uint32
	n     uint32
}

func newConnLoad(p loadPlan, idx int, c *agentConn, t0 time.Time) *connLoad {
	cl := &connLoad{
		p:      p,
		idx:    idx,
		c:      c,
		t0:     t0,
		end:    t0.Add(p.dur),
		cut:    t0.Add(p.warm),
		base:   make([]time.Duration, p.streams),
		sent:   make(map[uint32]*sendState),
		nextBL: t0,
	}
	// Slots are spread evenly over one period; connections interleave.
	step := float64(p.period) / float64(p.streams)
	for s := range cl.base {
		cl.base[s] = time.Duration(step*float64(s) + step*float64(idx)/float64(p.conns))
	}
	n := 1
	if p.window > 0 && p.dur > p.warm {
		n = int((p.dur - p.warm + p.window - 1) / p.window)
	}
	cl.windows = make([]window, n)
	cl.rx = &receiver{cl: cl, state: make(map[uint32]*rxState), windows: make([]window, n), done: make(chan struct{})}
	return cl
}

// windowOf returns the statistics window of a sample due at due, or nil
// during warm-up.
func (cl *connLoad) windowOf(due time.Time, ws []window) *window {
	if due.Before(cl.cut) {
		return nil
	}
	i := int(due.Sub(cl.cut) / cl.p.window)
	if i >= len(ws) {
		i = len(ws) - 1
	}
	return &ws[i]
}

// slotOffset staggers incarnation boundaries across slots so stream
// churn is spread over time instead of arriving as one burst.
func (cl *connLoad) slotOffset(slot int) int {
	if cl.p.life == 0 {
		return 0
	}
	return (slot * cl.p.life / cl.p.streams) % cl.p.life
}

// due is the intended send time of schedule index j: slot j%streams in
// round j/streams.
func (cl *connLoad) due(j int) (slot, round int, at time.Time) {
	slot, round = j%cl.p.streams, j/cl.p.streams
	return slot, round, cl.t0.Add(time.Duration(round)*cl.p.period + cl.base[slot])
}

// locate maps a schedule round of a slot to its stream id and seq.
func (cl *connLoad) locate(slot, round int) (id, seq uint32) {
	if cl.p.life == 0 {
		return uint32(slot), uint32(round)
	}
	k := round + cl.slotOffset(slot)
	inc := k / cl.p.life
	return uint32(inc*cl.p.streams + slot), uint32(k - inc*cl.p.life)
}

// intended is the scheduled send time of (id, seq); the receiver uses it
// to stamp latency from when the sample was due, not when it went out.
func (cl *connLoad) intended(id, seq uint32) time.Time {
	slot := int(id) % cl.p.streams
	round := int(seq)
	if cl.p.life > 0 {
		inc := int(id) / cl.p.streams
		round = inc*cl.p.life + int(seq) - cl.slotOffset(slot)
	}
	return cl.t0.Add(time.Duration(round)*cl.p.period + cl.base[slot])
}

// firstSeq is the first seq the schedule sends on stream id.
func (cl *connLoad) firstSeq(id uint32) uint32 {
	if cl.p.life == 0 || int(id) >= cl.p.streams {
		return 0
	}
	return uint32(cl.slotOffset(int(id)))
}

func (cl *connLoad) open(id, seq uint32) error {
	st := &sendState{app: fmt.Sprintf("%s-%d-app%d", cl.p.agent, cl.idx, id), first: seq}
	cl.sent[id] = st
	cl.order = append(cl.order, id)
	return cl.c.write(wire.OpenStream{Stream: id, App: st.app})
}

// sendDue opens every stream incarnation whose first sample is due
// within openLead, sends every sample due by now, closes incarnations
// that reached their life, and flushes.
func (cl *connLoad) sendDue(now time.Time) error {
	p := cl.p
	for ; ; cl.jo++ {
		slot, round, due := cl.due(cl.jo)
		if due.Add(-openLead).After(now) || !due.Before(cl.end) {
			break
		}
		if id, seq := cl.locate(slot, round); round == 0 || seq == 0 {
			if err := cl.open(id, seq); err != nil {
				return err
			}
		}
	}
	for ; ; cl.j++ {
		slot, round, due := cl.due(cl.j)
		if due.After(now) || !due.Before(cl.end) {
			break
		}
		id, seq := cl.locate(slot, round)
		st := cl.sent[id]
		if err := cl.c.sample(id, seq, p.features(cl.idx, id, seq)); err != nil {
			return err
		}
		st.n++
		cl.sentTotal++
		cl.rx.sent.Add(1)
		if w := cl.windowOf(due, cl.windows); w != nil {
			w.measured++
			w.lag = append(w.lag, int64(now.Sub(due)))
		}
		if p.life > 0 && int(seq) == p.life-1 {
			if err := cl.c.write(wire.CloseStream{Stream: id}); err != nil {
				return err
			}
			delete(cl.sent, id)
			cl.rx.closeSent(id, st)
		}
	}
	if !now.Before(cl.nextBL) {
		cl.backlog = append(cl.backlog, cl.rx.sent.Load()-int64(cl.rx.verdicts.Load()))
		cl.nextBL = cl.nextBL.Add(backlogEvery)
	}
	return cl.c.bw.Flush()
}

// closeAll closes whatever is still open, in open order, and tells the
// receiver how many summaries to expect.
func (cl *connLoad) closeAll() error {
	for _, id := range cl.order {
		if st := cl.sent[id]; st != nil {
			if err := cl.c.write(wire.CloseStream{Stream: id}); err != nil {
				return err
			}
			cl.rx.closeSent(id, st)
		}
	}
	if err := cl.c.bw.Flush(); err != nil {
		return err
	}
	cl.rx.expect(len(cl.order))
	return nil
}

// results merges the sender's and receiver's per-stream accounts; call
// only after both have finished.
func (cl *connLoad) results() []*streamResult {
	out := make([]*streamResult, 0, len(cl.order))
	for _, id := range cl.order {
		st := cl.rx.closed[id]
		r := &streamResult{conn: cl.idx, id: id, app: st.app, sent: st.n, first: st.first, hash: newVerdictHash()}
		next := st.first
		if rs := cl.rx.state[id]; rs != nil {
			r.got, r.missing, r.hash, r.sums, r.summary, r.order = rs.got, rs.missing, rs.hash, rs.sums, rs.summary, rs.order
			next = rs.next
		}
		for s := next; s < st.first+st.n; s++ {
			r.missing = append(r.missing, s)
		}
		out = append(out, r)
	}
	return out
}

// receiver decodes verdicts and summaries for one connection.
type receiver struct {
	cl *connLoad

	sent     atomic.Int64 // written by the sender, read for the backlog
	verdicts atomic.Uint64

	mu       sync.Mutex
	closed   map[uint32]*sendState // streams the sender has closed
	want     int                   // summaries that end the phase, once wantSet
	wantSet  bool
	sumCount int
	done     chan struct{} // closed when the receiver returns

	state   map[uint32]*rxState
	windows []window
}

type rxState struct {
	next    uint32 // next expected seq
	got     uint32
	missing []uint32
	hash    uint64
	sums    int
	summary wire.StreamSummary
	order   string
}

func (r *receiver) closeSent(id uint32, st *sendState) {
	r.mu.Lock()
	if r.closed == nil {
		r.closed = make(map[uint32]*sendState)
	}
	r.closed[id] = st
	r.mu.Unlock()
}

// expect tells the receiver how many summaries end the phase.
func (r *receiver) expect(n int) {
	r.mu.Lock()
	r.want, r.wantSet = n, true
	finished := r.sumCount >= n
	r.mu.Unlock()
	if finished {
		// Every summary is already in; wake the blocked read.
		r.cl.c.nc.SetReadDeadline(time.Now())
	}
}

func (r *receiver) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wantSet && r.sumCount >= r.want
}

func (r *receiver) stream(id uint32) *rxState {
	rs := r.state[id]
	if rs == nil {
		rs = &rxState{hash: newVerdictHash(), next: r.cl.firstSeq(id)}
		r.state[id] = rs
	}
	return rs
}

func (r *receiver) run() error {
	defer close(r.done)
	cl := r.cl
	deadline := int64(cl.p.deadline)
	for !r.finished() {
		body, err := cl.c.readFrame()
		if err != nil {
			if r.finished() {
				return nil
			}
			return fmt.Errorf("conn %d: %w", cl.idx, err)
		}
		now := time.Now()
		switch body[0] {
		case wire.TypeVerdict:
			if len(body) != verdictLen {
				return fmt.Errorf("conn %d: verdict frame of %d bytes, want %d", cl.idx, len(body), verdictLen)
			}
			stream, seq := be.Uint32(body[1:]), be.Uint32(body[5:])
			r.verdicts.Add(1)
			rs := r.stream(stream)
			switch {
			case seq < rs.next:
				if rs.order == "" {
					rs.order = fmt.Sprintf("verdict for seq %d after seq %d (duplicate or reordered)", seq, rs.next-1)
				}
				continue
			case seq > rs.next:
				for s := rs.next; s < seq; s++ {
					rs.missing = append(rs.missing, s)
				}
			}
			rs.next = seq + 1
			rs.got++
			rs.hash = hashVerdict(rs.hash, seq, body[9], body[10],
				math.Float64frombits(be.Uint64(body[11:])), math.Float64frombits(be.Uint64(body[19:])))
			due := cl.intended(stream, seq)
			if w := cl.windowOf(due, r.windows); w != nil {
				l := int64(now.Sub(due))
				w.lat = append(w.lat, l)
				if l <= deadline {
					w.onTime++
				}
			}
		case wire.TypeStreamSummary:
			if len(body) != summaryLen {
				return fmt.Errorf("conn %d: summary frame of %d bytes, want %d", cl.idx, len(body), summaryLen)
			}
			rs := r.stream(be.Uint32(body[1:]))
			rs.sums++
			rs.summary = wire.StreamSummary{
				Stream:       be.Uint32(body[1:]),
				ModelVersion: be.Uint32(body[5:]),
				Samples:      be.Uint64(body[9:]),
				Shed:         be.Uint64(body[17:]),
				Alarms:       be.Uint32(body[25:]),
				MaxSmoothed:  math.Float64frombits(be.Uint64(body[29:])),
			}
			r.mu.Lock()
			r.sumCount++
			r.mu.Unlock()
		default:
			f, err := wire.DecodePayload(body, nil)
			if err != nil {
				return fmt.Errorf("conn %d: %w", cl.idx, err)
			}
			if fr, ok := f.(wire.Error); ok {
				return fmt.Errorf("conn %d: server error %d: %s", cl.idx, fr.Code, fr.Msg)
			}
		}
	}
	return nil
}

// newVerdictHash and hashVerdict fold a stream's verdicts, in order, into
// one 64-bit FNV-1a value, so the gate compares streams without keeping
// every verdict in memory.
func newVerdictHash() uint64 { return fnv.New64a().Sum64() }

func hashVerdict(h uint64, seq uint32, flags, class uint8, score, smoothed float64) uint64 {
	const prime = 1099511628211
	mix := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(seq), 4)
	mix(uint64(flags), 1)
	mix(uint64(class), 1)
	mix(math.Float64bits(score), 8)
	mix(math.Float64bits(smoothed), 8)
	return h
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// agentConn is the generator's side of one connection. Samples are
// encoded and verdicts and summaries decoded by hand, straight from and
// into the connection's buffers: that keeps the generator's own cost per
// sample small next to the server's, and independent of the repository's
// wire code, so a change there moves the server's CPU and not the
// generator's, which the server's is read against.
type agentConn struct {
	nc      net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	welcome wire.Welcome
	frame   []byte
	body    []byte // reused frame-body buffer
}

// Frame body sizes (type byte plus payload) of the two frames the
// receiver decodes by hand.
const (
	verdictLen = 1 + 4 + 4 + 1 + 1 + 8 + 8
	summaryLen = 1 + 4 + 4 + 8 + 8 + 4 + 8
)

var be = binary.BigEndian

func dialAgent(ctx context.Context, addr, agent string) (*agentConn, error) {
	nc, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &agentConn{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), br: bufio.NewReaderSize(nc, 64<<10)}
	if err := c.handshake(agent); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *agentConn) handshake(agent string) error {
	if err := c.write(wire.Hello{Proto: wire.ProtoVersion, Agent: agent}); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.nc.SetReadDeadline(time.Time{})
	body, err := c.readFrame()
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	f, err := wire.DecodePayload(body, nil)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	w, ok := f.(wire.Welcome)
	if !ok {
		return fmt.Errorf("handshake reply is %T, want Welcome", f)
	}
	c.welcome = w
	return nil
}

// readFrame reads the next frame and returns its body (the type byte and
// the payload), valid until the next call.
func (c *agentConn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(be.Uint32(hdr[:]))
	if n < 1 || n > wire.MaxPayload {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	body := c.body[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

func (c *agentConn) write(f wire.Frame) error {
	b, err := wire.Append(c.frame[:0], f)
	if err != nil {
		return err
	}
	c.frame = b
	_, err = c.bw.Write(b)
	return err
}

// sample writes one Sample frame (wire.Append's encoding, without the
// interface boxing).
func (c *agentConn) sample(id, seq uint32, fv []float64) error {
	b := c.frame[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(1+4+4+8+2+8*len(fv)))
	b = append(b, wire.TypeSample)
	b = binary.BigEndian.AppendUint32(b, id)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = binary.BigEndian.AppendUint16(b, uint16(len(fv)))
	for _, v := range fv {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	c.frame = b
	_, err := c.bw.Write(b)
	return err
}

func (c *agentConn) close() { c.nc.Close() }
