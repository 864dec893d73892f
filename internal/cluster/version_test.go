package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// helloFrame hand-crafts a Hello advertising an arbitrary version —
// wire.Encoder always advertises its own build's Version, so acting as
// a mismatched peer needs raw bytes.
func helloFrame(v uint32) []byte {
	b := make([]byte, 9)
	binary.LittleEndian.PutUint32(b, 5)
	b[4] = byte(wire.KindHello)
	binary.LittleEndian.PutUint32(b[5:], v)
	return b
}

// adcSamples builds a batch on a uint16 grid (integer ADC counts × a
// power-of-two LSB) — data the encoder frames as PushQ.
func adcSamples(n int, seed uint64) []float64 {
	xs := make([]float64, n)
	state := seed
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = float64((state>>33)%4096) * (1.0 / (1 << 13))
	}
	return xs
}

// TestMismatchedHelloRefused: a shard accepts only a peer speaking
// exactly wire.Version. Every earlier revision (zero included) and the
// next one are all hung up on at the handshake — never negotiated
// with, never answered.
func TestMismatchedHelloRefused(t *testing.T) {
	ts := startShard(t, "127.0.0.1:0")
	defer ts.stop()
	for v := uint32(0); v <= wire.Version+1; v++ {
		if v == wire.Version {
			continue
		}
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(helloFrame(v)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if m, err := wire.NewDecoder(conn).Next(); err == nil {
				t.Fatalf("shard answered a v%d hello with %v v%d instead of closing", v, m.Kind, m.Version)
			}
		})
	}
}

// TestRouterRefusesNewerShard: a router whose only shard answers the
// Hello with wire.Version+1 must never count it healthy, so WaitReady
// times out instead of the router streaming at a peer it cannot parse.
func TestRouterRefusesNewerShard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := wire.NewDecoder(conn).Next(); err != nil {
					return
				}
				if _, err := conn.Write(helloFrame(wire.Version + 1)); err != nil {
					return
				}
				io.Copy(io.Discard, conn) // hold the socket until the router hangs up
			}()
		}
	}()

	r, err := Dial([]string{ln.Addr().String()}, Options{
		DialTimeout:      time.Second,
		ReconnectBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.WaitReady(500 * time.Millisecond); err == nil {
		t.Fatalf("router reported a v%d shard ready", wire.Version+1)
	}
}

// TestClusterServesQuantizedBatches: two current peers exchanging
// ADC-grid data (which rides PushQ frames) must classify windows
// exactly as ever — the wire format is invisible to the pipeline.
func TestClusterServesQuantizedBatches(t *testing.T) {
	ts := startShard(t, "127.0.0.1:0")
	defer ts.stop()
	r, err := Dial([]string{ts.addr()}, Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, err := r.Open("grid-patient")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c0, c1 := adcSamples(12*testRate, 21), adcSamples(12*testRate, 22)
	pushSamples(t, h, c0, c1)
	awaitSnapshot(t, r, "windows from quantized batches", func(st serve.Stats) bool {
		return st.Windows > 0
	})
}
