// Command smartgw is the sharded gateway tier: it accepts agent
// connections speaking the same internal/wire protocol as smartserve and
// routes each (agent, app) stream to one of N backend smartserve shards
// by consistent hash. Agents point at the gateway exactly as they would
// at a single server; the fleet behind it can grow, shrink or lose a
// shard without any agent reconfiguration.
//
// The gateway health-checks every shard each -check-interval with a
// Heartbeat round-trip and reroutes streams when the healthy set changes:
// a stream leaving a shard is drained there (closed upstream, its summary
// suppressed) and re-opened on the shard the rebuilt hash ring picks.
// Shard deaths noticed on the data path reroute immediately, without
// waiting for the next probe. Fleet telemetry lands in the cluster_*
// metric families and, with -report, in the machine-readable run report.
//
// With -envelope the gateway runs the stage-0 cascade at the edge:
// samples inside the benign envelope get a synthesized benign verdict at
// the gateway and are never forwarded, cutting shard load on benign-heavy
// traffic. -cascade-threshold tunes (or, negative, disables) the
// short-circuit boundary.
//
// With -idle-timeout the gateway reaps agent connections that send no
// frame (not even a Heartbeat) for that long: it forwards what they had
// queued, sends Error{CodeIdle} and closes their upstream connections.
//
// On SIGINT/SIGTERM the gateway drains gracefully — stops accepting,
// forwards everything already queued — and exits 130.
//
// Usage:
//
//	smartserve -model det.json -shard -addr 127.0.0.1:7644 &
//	smartserve -model det.json -shard -addr 127.0.0.1:7645 &
//	smartgw -addr 127.0.0.1:7643 -shards 127.0.0.1:7644,127.0.0.1:7645
//	smartload -addr 127.0.0.1:7643 -cluster -shards 127.0.0.1:7644,127.0.0.1:7645
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/cli"
	"twosmart/internal/cluster"
	"twosmart/internal/persist"
	"twosmart/internal/samplelog"
	"twosmart/internal/trace"
)

var app = cli.New("smartgw")

func main() {
	addr := flag.String("addr", "127.0.0.1:7643", "TCP listen address for agent connections (use :0 for a random port; the bound address is printed on stdout)")
	shards := flag.String("shards", "", "comma-separated backend smartserve shard addresses (required)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per shard on the consistent-hash ring")
	checkInterval := flag.Duration("check-interval", 2*time.Second, "shard health-probe period")
	dialTimeout := flag.Duration("dial-timeout", 3*time.Second, "upstream dial + handshake / probe round-trip budget")
	queueDepth := flag.Int("queue-depth", 4096, "per-connection ingress queue depth; beyond it the oldest samples are shed")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap agent connections that send no frame (not even a Heartbeat) for this long (0 = never)")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON, includes the cluster_* counters) to this file (- for stdout)")
	traceSample := flag.Int("trace-sample", 1024, "capture one gateway-tier trace per this many forwarded samples (0 = tracing off; served at /debug/traces with -telemetry-addr)")
	traceDepth := flag.Int("trace-depth", 256, "trace ring capacity (rounded up to a power of two)")
	sampleLogDir := flag.String("samplelog", "", "record every sample arriving at the gateway edge (features only, no verdict) to this durable log directory for smartload -replay; written off the hot path")
	sampleLogSegment := flag.Int64("samplelog-segment", 8<<20, "with -samplelog: rotate segments at this many bytes")
	sampleLogRetain := flag.Int("samplelog-retain", 64, "with -samplelog: keep at most this many segments, pruning oldest-first (-1 = unbounded)")
	envelopeIn := flag.String("envelope", "", "stage-0 anomaly envelope (JSON, from smartrain -envelope): short-circuit clear-benign samples at the gateway edge instead of forwarding them to a shard")
	cascadeThreshold := flag.Float64("cascade-threshold", 0, "stage-0 short-circuit threshold: 0 uses the envelope's calibrated threshold, >0 overrides it, <0 disables the edge cascade even when an envelope is present")
	flag.Parse()
	ctx := app.Start()
	defer app.Close()

	tracer := trace.New(trace.Config{SampleEvery: *traceSample, Depth: *traceDepth})
	app.DebugHandle("/debug/traces", tracer.Handler())

	if *shards == "" {
		app.Fatal(fmt.Errorf("-shards is required (comma-separated smartserve addresses)"))
	}
	fleet := strings.Split(*shards, ",")
	for i := range fleet {
		fleet[i] = strings.TrimSpace(fleet[i])
	}

	var sampleLog *samplelog.Writer
	if *sampleLogDir != "" {
		sl, err := samplelog.OpenWriter(samplelog.WriterConfig{
			Dir:          *sampleLogDir,
			SegmentBytes: *sampleLogSegment,
			MaxSegments:  *sampleLogRetain,
			Telemetry:    app.Telemetry,
		})
		if err != nil {
			app.Fatal(err)
		}
		sampleLog = sl
		app.Log.Info("sample log attached", "dir", *sampleLogDir,
			"segment_bytes", *sampleLogSegment, "retain", *sampleLogRetain)
	}

	var envelope *anomaly.Envelope
	if *envelopeIn != "" {
		blob, err := os.ReadFile(*envelopeIn)
		if err != nil {
			app.Fatal(err)
		}
		envelope, err = persist.UnmarshalEnvelope(blob)
		if err != nil {
			app.Fatal(fmt.Errorf("envelope %s: %w", *envelopeIn, err))
		}
		app.Log.Info("envelope loaded", "path", *envelopeIn,
			"features", envelope.NumFeatures(), "threshold", envelope.Threshold)
	}

	gw, err := cluster.New(cluster.Config{
		Shards:           fleet,
		Replicas:         *replicas,
		CheckInterval:    *checkInterval,
		DialTimeout:      *dialTimeout,
		QueueDepth:       *queueDepth,
		IdleTimeout:      *idleTimeout,
		Envelope:         envelope,
		CascadeThreshold: *cascadeThreshold,
		Telemetry:        app.Telemetry,
		Tracer:           tracer,
		SampleLog:        sampleLog,
		Log:              app.Log,
	})
	if err != nil {
		app.Fatal(err)
	}

	bound, err := gw.Listen(*addr)
	if err != nil {
		app.Fatal(err)
	}
	// The bound address goes to stdout so scripts using -addr :0 can
	// capture it (logs go to stderr).
	fmt.Printf("listening %s\n", bound)
	app.Log.Info("gateway up", "addr", bound.String(), "shards", len(fleet), "replicas", *replicas)

	serveErr := gw.Serve(ctx)
	var logStats samplelog.Stats
	if sampleLog != nil {
		var err error
		logStats, err = sampleLog.Close()
		if err != nil {
			app.Log.Warn("sample log close", "err", err)
		}
		app.Log.Info("sample log closed",
			"appended", logStats.Appended, "dropped", logStats.Dropped,
			"bytes", logStats.Bytes, "segments", logStats.Segments, "pruned", logStats.Pruned)
	}
	if *reportOut != "" {
		rep := app.Telemetry.Report(app.Tool)
		if sampleLog != nil {
			rep.Results["samplelog_appended"] = float64(logStats.Appended)
			rep.Results["samplelog_dropped"] = float64(logStats.Dropped)
		}
		if envelope != nil && *cascadeThreshold >= 0 {
			short := app.Telemetry.Counter("cascade_short_total").Value()
			pass := app.Telemetry.Counter("cascade_pass_total").Value()
			rep.Results["cascade_short_circuited"] = float64(short)
			rep.Results["cascade_passed_on"] = float64(pass)
			if total := short + pass; total > 0 {
				rep.Results["cascade_short_fraction"] = float64(short) / float64(total)
			}
		}
		if err := rep.WriteFile(*reportOut); err != nil {
			app.Log.Error("write run report", "path", *reportOut, "err", err)
		} else if *reportOut != "-" {
			app.Log.Info("wrote run report", "path", *reportOut)
		}
	}
	if serveErr != nil {
		app.Fatal(serveErr)
	}
	if ctx.Err() != nil {
		app.Log.Info("drained cleanly after signal")
		app.Close()
		os.Exit(cli.ExitInterrupted)
	}
}
