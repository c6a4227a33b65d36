package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/dataset"
	"twosmart/internal/samplelog"
	"twosmart/internal/serve"
	"twosmart/internal/workload"
)

// TestSampleLogBothTiers sends the same mixed traffic under one envelope
// through (a) a cascade shard with a sample log and (b) an edge-cascade
// gateway with a sample log in front of a plain shard. Both logs hold
// one record per sample, and a short-circuit logs the same way on both
// tiers: scored, short-circuited, benign, score 0.
func TestSampleLogBothTiers(t *testing.T) {
	det, data := fixtures(t)
	env := trainEnvelope(t, data)
	const streams, perStream = 2, 48

	shardDir := t.TempDir()
	shardLog := openSampleLog(t, shardDir)
	shardAddr := startServer(t, serve.Config{Detector: det, Envelope: env, SampleLog: shardLog, Log: quietLog()})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sc, err := serve.Dial(ctx, shardAddr, testAgent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	driveStreams(t, sc, data, streams, perStream)
	closeSampleLog(t, shardLog, streams*perStream)

	gwDir := t.TempDir()
	gwLog := openSampleLog(t, gwDir)
	sh := startShard(t)
	tg := startGatewayWith(t, []string{sh.addr}, func(c *Config) {
		c.Envelope = env
		c.SampleLog = gwLog
	})
	driveStreams(t, dialGateway(t, tg, testAgent), data, streams, perStream)
	closeSampleLog(t, gwLog, streams*perStream)

	for _, tier := range []struct {
		name    string
		dir     string
		gateway bool
	}{{"shard", shardDir, false}, {"gateway", gwDir, true}} {
		t.Run(tier.name, func(t *testing.T) {
			checkSampleLog(t, tier.dir, tier.gateway, env, data, streams, perStream)
		})
	}
}

// checkSampleLog reads a log back and checks every record against the
// sample sendWave sent for it and the envelope's verdict on that sample.
func checkSampleLog(t *testing.T, dir string, gateway bool, env *anomaly.Envelope, data *dataset.Dataset, streams, perStream int) {
	t.Helper()
	perStreamRecs := make(map[uint32][]samplelog.Record)
	if _, err := samplelog.ReadDir(dir, func(r samplelog.Record) error {
		perStreamRecs[r.Stream] = append(perStreamRecs[r.Stream], r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(perStreamRecs) != streams {
		t.Fatalf("records on %d streams, want %d", len(perStreamRecs), streams)
	}
	const scoredShort = samplelog.FlagScored | samplelog.FlagShortCircuit
	shorts := 0
	for s := 0; s < streams; s++ {
		recs := perStreamRecs[uint32(s)]
		if len(recs) != perStream {
			t.Fatalf("stream %d: %d records, want %d", s, len(recs), perStream)
		}
		for i, rec := range recs {
			fv := data.Instances[(i*streams+s)%data.Len()].Features
			if rec.App != testApp(s) || !slices.Equal(rec.Features, fv) {
				t.Fatalf("stream %d record %d: app %q features %v, want %q %v", s, i, rec.App, rec.Features, testApp(s), fv)
			}
			if env.Score(fv) > env.Threshold {
				switch {
				case gateway && rec.Flags != 0:
					t.Fatalf("stream %d record %d: forwarded record flags %08b, want 0", s, i, rec.Flags)
				case !gateway && (!rec.Scored() || rec.ShortCircuited()):
					t.Fatalf("stream %d record %d: passed record flags %08b, want scored, not short-circuited", s, i, rec.Flags)
				}
				continue
			}
			shorts++
			if rec.Flags&scoredShort != scoredShort || rec.Malware() ||
				rec.Class != uint8(workload.Benign) || rec.Score != 0 {
				t.Fatalf("stream %d record %d: short-circuit record %+v, want scored benign short-circuit, score 0", s, i, rec)
			}
			if gateway && rec.Flags != scoredShort {
				t.Fatalf("stream %d record %d: gateway short record flags %08b, want %08b", s, i, rec.Flags, scoredShort)
			}
		}
	}
	if shorts == 0 || shorts == streams*perStream {
		t.Fatalf("degenerate partition %d/%d; fixture corpus should mix", shorts, streams*perStream)
	}
}

// driveStreams opens streams on c, sends perStream samples on each,
// closes them and reads until every stream's summary arrived, so every
// sample has been logged by the tier that records it.
func driveStreams(t *testing.T, c *serve.Client, data *dataset.Dataset, streams, perStream int) {
	t.Helper()
	for s := 0; s < streams; s++ {
		if err := c.OpenStream(uint32(s), testApp(s)); err != nil {
			t.Fatal(err)
		}
	}
	sendWave(t, c, data, streams, 0, perStream)
	for s := 0; s < streams; s++ {
		if err := c.CloseStream(uint32(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[uint32]int)
	collect(t, c, verdicts, streams)
	for s := 0; s < streams; s++ {
		if verdicts[uint32(s)] != perStream {
			t.Fatalf("stream %d: %d verdicts, want %d", s, verdicts[uint32(s)], perStream)
		}
	}
}

func openSampleLog(t *testing.T, dir string) *samplelog.Writer {
	t.Helper()
	sl, err := samplelog.OpenWriter(samplelog.WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

// closeSampleLog flushes the log and checks that it kept all want
// records.
func closeSampleLog(t *testing.T, sl *samplelog.Writer, want int) {
	t.Helper()
	st, err := sl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != uint64(want) || st.Dropped != 0 {
		t.Fatalf("log stats %+v, want %d appended", st, want)
	}
}

// startServer boots a scoring server with cfg and returns its address;
// the server drains at test cleanup.
func startServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("shard Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("shard did not drain within 10s")
		}
	})
	return addr.String()
}
