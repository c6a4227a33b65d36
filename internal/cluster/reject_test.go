package cluster

import (
	"net"
	"testing"
	"time"

	"twosmart/internal/wire"
)

// TestProtocolRejectionsBothTiers drives every wire-visible refusal
// against a shard and against a gateway in front of it: an agent must
// not be able to tell the tiers apart by their error codes.
func TestProtocolRejectionsBothTiers(t *testing.T) {
	sh := startShard(t)
	tg := startGateway(t, []string{sh.addr})
	hello := wire.Hello{Proto: wire.ProtoVersion, Agent: "reject-agent"}
	cases := []struct {
		name   string
		frames []wire.Frame
		want   uint16
	}{
		{"first frame not Hello", []wire.Frame{wire.OpenStream{Stream: 1, App: "a"}}, wire.CodeProtocol},
		{"version mismatch", []wire.Frame{wire.Hello{Proto: 99, Agent: "future"}}, wire.CodeVersion},
		{"bad feature width", []wire.Frame{hello,
			wire.OpenStream{Stream: 1, App: "a"},
			wire.Sample{Stream: 1, Features: []float64{1, 2}}}, wire.CodeBadFeatures},
		{"duplicate stream id", []wire.Frame{hello,
			wire.OpenStream{Stream: 1, App: "a"},
			wire.OpenStream{Stream: 1, App: "b"}}, wire.CodeBadStream},
		{"duplicate app", []wire.Frame{hello,
			wire.OpenStream{Stream: 1, App: "a"},
			wire.OpenStream{Stream: 2, App: "a"}}, wire.CodeBadStream},
		{"close of unopened stream", []wire.Frame{hello, wire.CloseStream{Stream: 9}}, wire.CodeBadStream},
		{"unexpected frame type", []wire.Frame{hello, wire.Verdict{Stream: 1}}, wire.CodeProtocol},
	}
	for _, tier := range []struct{ name, addr string }{{"shard", sh.addr}, {"gateway", tg.addr}} {
		for _, tc := range cases {
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				if got := firstErrorCode(t, tier.addr, tc.frames); got != tc.want {
					t.Fatalf("error code %d, want %d", got, tc.want)
				}
			})
		}
	}
}

// firstErrorCode writes frames on a raw connection and returns the code
// of the first Error frame the peer answers with, skipping the Welcome.
func firstErrorCode(t *testing.T, addr string, frames []wire.Frame) uint16 {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	w := wire.NewWriter(nc)
	for _, f := range frames {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := wire.NewReader(nc)
	for {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("read before any Error frame: %v", err)
		}
		switch fr := f.(type) {
		case wire.Error:
			return fr.Code
		case wire.Welcome:
		default:
			t.Fatalf("unexpected frame %#v before the Error frame", f)
		}
	}
}
