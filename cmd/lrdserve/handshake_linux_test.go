package main

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestStopHandshakesDropsOnlySYNs: once stopHandshakes is on, a new dial
// gets no answer (its SYN is dropped) instead of a handshake, while
// segments that carry an ACK still pass — the same filter on an accepted
// connection lets its data through.
func TestStopHandshakesDropsOnlySYNs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := ln.(*net.TCPListener)
	defer tl.Close()

	client, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := tl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	stopHandshakes(server.(*net.TCPConn))
	if _, err := io.WriteString(client, "ping"); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("data through the filter: %q, %v", buf, err)
	}

	stopHandshakes(tl)
	c, err := net.DialTimeout("tcp", tl.Addr().String(), 300*time.Millisecond)
	if err == nil {
		c.Close()
		t.Fatal("a dial completed its handshake after stopHandshakes")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("late dial: %v, want a timeout", err)
		}
	}
}
