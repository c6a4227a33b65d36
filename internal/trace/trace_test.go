package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestNewDisabled(t *testing.T) {
	if tr := New(Config{SampleEvery: 0}); tr != nil {
		t.Fatalf("SampleEvery=0 should disable tracing, got %v", tr)
	}
	if tr := New(Config{SampleEvery: -5}); tr != nil {
		t.Fatalf("negative SampleEvery should disable tracing")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if _, _, ok := tr.SampleBatch(100); ok {
		t.Fatal("nil tracer sampled")
	}
	tr.Add(Record{TraceID: 1})
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if tr.SampleEvery() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil accessors should be zero")
	}
	d := tr.DumpState()
	if len(d.Records) != 0 || len(d.HopNames) != NumHops {
		t.Fatalf("nil DumpState = %+v", d)
	}
}

func TestSampleBatchStride(t *testing.T) {
	tr := New(Config{SampleEvery: 8, Depth: 16})
	var hits int
	var lastID uint64
	const chunk, chunks = 3, 100
	for i := 0; i < chunks; i++ {
		off, id, ok := tr.SampleBatch(chunk)
		if !ok {
			continue
		}
		hits++
		if off < 0 || off >= chunk {
			t.Fatalf("offset %d out of chunk [0,%d)", off, chunk)
		}
		if id <= lastID {
			t.Fatalf("trace IDs not increasing: %d after %d", id, lastID)
		}
		lastID = id
	}
	// 300 samples at 1-in-8 → 37 boundaries; one hit max per chunk.
	want := chunk * chunks / 8
	if hits < want-1 || hits > want+1 {
		t.Fatalf("hits = %d, want ~%d", hits, want)
	}
}

func TestSampleBatchChunkLargerThanStride(t *testing.T) {
	tr := New(Config{SampleEvery: 2})
	off, _, ok := tr.SampleBatch(10)
	if !ok {
		t.Fatal("chunk spanning several boundaries must sample")
	}
	if off != 1 {
		t.Fatalf("offset = %d, want 1 (first boundary)", off)
	}
	// At most one trace per chunk even when n >> every.
	if _, _, ok := tr.SampleBatch(10); !ok {
		t.Fatal("next chunk should sample again")
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Depth: 4})
	for i := 1; i <= 10; i++ {
		tr.Add(Record{TraceID: uint64(i), TotalNanos: int64(i)})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot size = %d, want 4", len(got))
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		seen[r.TraceID] = true
	}
	for id := uint64(7); id <= 10; id++ {
		if !seen[id] {
			t.Fatalf("newest records should survive, missing id %d (have %v)", id, got)
		}
	}
}

func TestDepthRounding(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Depth: 5})
	if got := len(tr.slots); got != 8 {
		t.Fatalf("depth 5 should round to 8 slots, got %d", got)
	}
	tr = New(Config{SampleEvery: 1}) // default
	if got := len(tr.slots); got != 256 {
		t.Fatalf("default depth = %d, want 256", got)
	}
}

func TestConcurrentAddSnapshot(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Depth: 32})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Add(Record{TraceID: uint64(g*10000 + i + 1), TotalNanos: int64(i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			for _, r := range tr.Snapshot() {
				if r.TraceID == 0 {
					t.Error("snapshot returned zero record")
					return
				}
			}
		}
	}()
	wg.Wait()
	if got := tr.Snapshot(); len(got) == 0 {
		t.Fatal("ring empty after concurrent adds")
	}
}

func TestHandlerJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 4, Depth: 8})
	tr.Add(Record{TraceID: 42, Tier: TierShard, App: "vim", Stream: 7, Seq: 9,
		Hops: [NumHops]int64{0, 10, 20, 30, 40}, TotalNanos: 100})
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, rec.Body.String())
	}
	if d.SampleEvery != 4 || d.Depth != 8 || len(d.HopNames) != NumHops {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Records) != 1 || d.Records[0].TraceID != 42 || d.Records[0].App != "vim" {
		t.Fatalf("dump records = %+v", d.Records)
	}
	var sum int64
	for _, h := range d.Records[0].Hops {
		sum += h
	}
	if sum != d.Records[0].TotalNanos {
		t.Fatalf("hops sum %d != total %d", sum, d.Records[0].TotalNanos)
	}
}

// TestRecordCapture pins the hop arithmetic for each tier shape from
// fixed instants: the exact hops, the telescoping sum, and the
// back-dated start.
func TestRecordCapture(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	cases := []struct {
		name string
		in   Instants
		want [NumHops]int64
	}{
		{
			name: "direct shard",
			in: Instants{At: at(0), Drained: at(100), Stage0Start: at(250), Stage0End: at(250),
				ScoreStart: at(250), ScoreEnd: at(1250), EmitEnd: at(1300)},
			want: [NumHops]int64{0, 100, 150, 0, 1000, 50},
		},
		{
			name: "cascade shard behind a gateway",
			in: Instants{Origin: base.UnixNano() - 400, At: at(0), Drained: at(100), Stage0Start: at(250),
				Stage0End: at(280), ScoreStart: at(280), ScoreEnd: at(780), EmitEnd: at(800)},
			want: [NumHops]int64{400, 100, 150, 30, 500, 20},
		},
		{
			name: "edge-cascade gateway",
			in: Instants{At: at(0), Drained: at(100), Stage0Start: at(120), Stage0End: at(160),
				ScoreStart: at(400), ScoreEnd: at(400), EmitEnd: at(900)},
			want: [NumHops]int64{0, 100, 260, 40, 0, 500},
		},
		{
			name: "origin stamped after local ingress (clock skew)",
			in: Instants{Origin: base.UnixNano() + 50, At: at(0), Drained: at(100), Stage0Start: at(250),
				Stage0End: at(250), ScoreStart: at(250), ScoreEnd: at(1250), EmitEnd: at(1300)},
			want: [NumHops]int64{0, 100, 150, 0, 1000, 50},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r Record
			r.Capture(tc.in)
			if r.Hops != tc.want {
				t.Fatalf("hops %v, want %v", r.Hops, tc.want)
			}
			var sum int64
			for _, h := range r.Hops {
				sum += h
			}
			if sum != r.TotalNanos {
				t.Fatalf("hops sum %d != total %d", sum, r.TotalNanos)
			}
			if want := tc.in.EmitEnd.UnixNano() - r.TotalNanos; r.StartNanos != want {
				t.Fatalf("start %d, want EmitEnd-Total = %d", r.StartNanos, want)
			}
		})
	}
}

func TestHopString(t *testing.T) {
	if HopGateway.String() != "gateway" || HopEmit.String() != "emit" {
		t.Fatal("hop names wrong")
	}
	if Hop(99).String() != "invalid" {
		t.Fatal("out-of-range hop should stringify as invalid")
	}
}

func TestSampleBatchNoAllocs(t *testing.T) {
	tr := New(Config{SampleEvery: 1 << 30, Depth: 16})
	if n := testing.AllocsPerRun(1000, func() {
		tr.SampleBatch(64)
	}); n != 0 {
		t.Fatalf("unsampled SampleBatch allocates %v per run, want 0", n)
	}
	var nilTr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.SampleBatch(64)
	}); n != 0 {
		t.Fatalf("nil SampleBatch allocates %v per run, want 0", n)
	}
}

func TestAddNoAllocs(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Depth: 16})
	r := Record{TraceID: 1, Tier: TierShard, TotalNanos: 5}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Add(r)
	}); n != 0 {
		t.Fatalf("Add allocates %v per run, want 0", n)
	}
}

// BenchmarkObserveTraceSample pins the hot-path cost of the sampling
// decision (named to ride the CI bench gate's BenchmarkObserve pattern).
// The disabled and unsampled variants are the serve hot path's real
// per-chunk overhead and must stay allocation-free.
func BenchmarkObserveTraceSample(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.SampleBatch(256)
		}
	})
	b.Run("unsampled", func(b *testing.B) {
		tr := New(Config{SampleEvery: 1 << 62, Depth: 256})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.SampleBatch(256)
		}
	})
	b.Run("sampled+add", func(b *testing.B) {
		tr := New(Config{SampleEvery: 1, Depth: 256})
		rec := Record{TraceID: 1, Tier: TierShard, TotalNanos: 100}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, id, ok := tr.SampleBatch(256); ok {
				rec.TraceID = id
				tr.Add(rec)
			}
		}
	})
}
