package cluster

import (
	"runtime"
	"testing"
	"time"

	"twosmart/internal/wire"
)

// TestGatewayIdleReapsConnection pins the gateway's reap path: an agent
// that goes silent past IdleTimeout gets Error{CodeIdle} and is closed,
// the reap is counted, and the connection's upstream relays exit with it.
func TestGatewayIdleReapsConnection(t *testing.T) {
	_, data := fixtures(t)
	sh := startShard(t)
	tg := startGatewayWith(t, []string{sh.addr}, func(c *Config) { c.IdleTimeout = 250 * time.Millisecond })

	// The health probe's round-trip proves the probe connection and its
	// shard-side goroutines are up; what remains above this count after
	// the reap would be the reaped connection's.
	deadline := time.Now().Add(10 * time.Second)
	for tg.reg.Gauge("cluster_shards_healthy").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("shard never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	baseline := runtime.NumGoroutine()

	c := dialGateway(t, tg, testAgent)
	const streams, n = 2, 4
	for s := 0; s < streams; s++ {
		if err := c.OpenStream(uint32(s), testApp(s)); err != nil {
			t.Fatal(err)
		}
	}
	sendWave(t, c, data, streams, 0, n)

	// Go silent and read until the gateway hangs up. The client-side
	// deadline only bounds the test when the reap never happens.
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	verdicts := 0
	var reap *wire.Error
	for {
		f, err := c.Next()
		if err != nil {
			break // EOF once the gateway closed the reaped connection
		}
		switch fr := f.(type) {
		case wire.Verdict:
			verdicts++
		case wire.Error:
			e := fr
			reap = &e
		}
	}
	if verdicts != streams*n {
		t.Errorf("got %d verdicts before the reap, want %d", verdicts, streams*n)
	}
	if reap == nil {
		t.Fatal("connection closed without a CodeIdle error frame")
	}
	if reap.Code != wire.CodeIdle {
		t.Fatalf("reap error code = %d, want CodeIdle (%d): %s", reap.Code, wire.CodeIdle, reap.Msg)
	}
	if got := tg.reg.Counter("cluster_conns_reaped_total").Value(); got != 1 {
		t.Errorf("cluster_conns_reaped_total = %d, want 1", got)
	}
	c.Close()

	// The reaped connection's reader, worker and upstream relay goroutines
	// (and the shard's side of the upstream) must all be gone.
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the reap, %d before the agent dialled:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tg.reg.Gauge("cluster_connections_active").Value(); got != 0 {
		t.Errorf("cluster_connections_active = %v after the reap, want 0", got)
	}
}
