package main

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"twosmart/internal/wire"
)

// stubServer speaks the agent side of the wire protocol and holds every
// verdict for a fixed delay before writing it, so the generator's
// latency figures can be checked against a known answer.
type stubServer struct {
	ln    net.Listener
	delay time.Duration
	wg    sync.WaitGroup
}

func startStub(t *testing.T, delay time.Duration) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, delay: delay}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

// pending is one reply the stub owes, due at a wall-clock time.
type pending struct {
	due   time.Time
	frame wire.Frame
}

func (s *stubServer) serve(nc net.Conn) {
	defer nc.Close()
	r := wire.NewReader(nc)
	w := wire.NewWriter(nc)
	if _, err := r.Next(); err != nil { // Hello
		return
	}
	w.Write(wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: 4, Model: "stub"})
	w.Flush()

	queue := make(chan pending, 1<<16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			if d := time.Until(p.due); d > 0 {
				w.Flush()
				time.Sleep(d)
			}
			if w.Write(p.frame) != nil {
				return
			}
			if len(queue) == 0 && w.Flush() != nil {
				return
			}
		}
		w.Flush()
	}()
	defer func() {
		close(queue)
		<-done
	}()
	counts := map[uint32]uint64{}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		now := time.Now()
		switch fr := f.(type) {
		case wire.Sample:
			counts[fr.Stream]++
			queue <- pending{now.Add(s.delay), stubVerdict(fr.Stream, fr.Seq)}
		case wire.CloseStream:
			queue <- pending{now.Add(s.delay), wire.StreamSummary{Stream: fr.Stream, ModelVersion: stubVersion,
				Samples: counts[fr.Stream], Alarms: 3, MaxSmoothed: 0.5}}
		}
	}
}

// stubVersion is the model version the stub's summaries report.
const stubVersion = 7

// stubVerdict is the stub's verdict for one sample: every field varies
// with the sample, so a receiver that decodes a field wrongly changes
// the stream's verdict hash.
func stubVerdict(stream, seq uint32) wire.Verdict {
	return wire.Verdict{Stream: stream, Seq: seq, Flags: uint8(seq % 16), Class: uint8(stream % 5),
		Score: float64(seq) / 1000, Smoothed: float64(stream) / 7}
}

// TestGeneratorTracksInjectedDelay is the harness self-test: at the
// paper's 10 ms sampling period, the generator's p50 latency must track
// a server delay it cannot see, within the sender's tick plus a
// scheduling allowance. A generator that batched its flushes (the old
// 64-round client flush) would report tens of milliseconds here.
func TestGeneratorTracksInjectedDelay(t *testing.T) {
	const tolerance = 2 * time.Millisecond
	feats := []float64{1, 2, 3, 4}
	for _, delay := range []time.Duration{2 * time.Millisecond, 6 * time.Millisecond} {
		stub := startStub(t, delay)
		res, err := runLoad(context.Background(), loadPlan{
			addr:     stub.ln.Addr().String(),
			agent:    "selftest",
			conns:    2,
			streams:  50,
			period:   10 * time.Millisecond,
			dur:      1500 * time.Millisecond,
			warm:     300 * time.Millisecond,
			deadline: 10 * time.Millisecond,
			features: func(int, uint32, uint32) []float64 { return feats },
		}, time.Now().Add(50*time.Millisecond))
		if err != nil {
			t.Fatalf("delay %s: %v", delay, err)
		}
		p50 := time.Duration(quantile(res.all.lat, 0.5))
		t.Logf("injected %s: p50 %s p99 %s over %d samples (lag p99 %s)",
			delay, p50, time.Duration(quantile(res.all.lat, 0.99)), len(res.all.lat), time.Duration(quantile(res.all.lag, 0.99)))
		if p50 < delay || p50 > delay+tolerance {
			t.Errorf("injected %s: p50 %s outside [%s, %s]", delay, p50, delay, delay+tolerance)
		}
		if res.sent != uint64(len(res.streams))*150 || res.verdicts != res.sent {
			t.Errorf("injected %s: sent %d verdicts %d over %d streams, want 150 per stream", delay, res.sent, res.verdicts, len(res.streams))
		}
		// The receiver decodes verdicts and summaries by hand; every
		// field must come through.
		for _, r := range res.streams {
			h := newVerdictHash()
			for seq := r.first; seq < r.first+r.sent; seq++ {
				v := stubVerdict(r.id, seq)
				h = hashVerdict(h, seq, v.Flags, v.Class, v.Score, v.Smoothed)
			}
			want := wire.StreamSummary{Stream: r.id, ModelVersion: stubVersion, Samples: uint64(r.sent), Alarms: 3, MaxSmoothed: 0.5}
			if r.hash != h || r.sums != 1 || r.summary != want {
				t.Fatalf("injected %s: conn %d stream %d: hash match %v, %d summaries, summary %+v, want %+v",
					delay, r.conn, r.id, r.hash == h, r.sums, r.summary, want)
			}
		}
	}
}

// TestGeneratorSchedule pins the open-loop schedule arithmetic: every
// (stream, seq) the sender emits maps back to its own intended time, and
// churned incarnations cover each slot's rounds exactly once.
func TestGeneratorSchedule(t *testing.T) {
	p := loadPlan{conns: 2, streams: 7, period: 10 * time.Millisecond, life: 5, dur: time.Second}
	t0 := time.Unix(1000, 0)
	cl := newConnLoad(p, 1, nil, t0)
	seen := map[[2]uint32]bool{}
	for slot := 0; slot < p.streams; slot++ {
		for round := 0; round < 40; round++ {
			id, seq := cl.locate(slot, round)
			if int(id)%p.streams != slot || int(seq) >= p.life {
				t.Fatalf("slot %d round %d -> id %d seq %d", slot, round, id, seq)
			}
			key := [2]uint32{id, seq}
			if seen[key] {
				t.Fatalf("slot %d round %d reuses id %d seq %d", slot, round, id, seq)
			}
			seen[key] = true
			want := t0.Add(time.Duration(round)*p.period + cl.base[slot])
			if got := cl.intended(id, seq); !got.Equal(want) {
				t.Fatalf("intended(%d,%d) = %s, want %s", id, seq, got, want)
			}
		}
	}
}

// TestVerdictHashOrder checks the gate's hash is order-sensitive.
func TestVerdictHashOrder(t *testing.T) {
	a := hashVerdict(hashVerdict(newVerdictHash(), 1, 0, 0, 0.25, 0.5), 2, 0, 0, 0.75, 0.5)
	b := hashVerdict(hashVerdict(newVerdictHash(), 2, 0, 0, 0.75, 0.5), 1, 0, 0, 0.25, 0.5)
	if a == b {
		t.Fatal("hash ignores verdict order")
	}
	c := hashVerdict(newVerdictHash(), 1, 0, 0, math.Nextafter(0.25, 1), 0.5)
	if c == hashVerdict(newVerdictHash(), 1, 0, 0, 0.25, 0.5) {
		t.Fatal("hash ignores a one-ulp score change")
	}
}
