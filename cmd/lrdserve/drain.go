package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// drainListener is the server's listener. Closing a listening socket
// resets every connection the kernel completed but nobody accepted yet, so
// a client that dialed just before the close sees "connection reset" where
// a drain promises a clean answer. drainListener therefore ends the HTTP
// server's accept loop without closing the socket (stopServing), then
// answers what the kernel queue holds with 503 draining and only then
// closes it (drainQueue).
//
// On Linux the kernel stops taking new SYNs when the drain begins, while
// handshakes already in flight still complete into the queue drainQueue
// answers. What remains is a handshake whose final ACK arrives after
// drainQueue has found the queue empty for 10 ms: a client more than that
// round trip away whose SYN reached the socket just before the drain is
// still reset. Elsewhere any handshake completing in the instant before
// the close is.
type drainListener struct {
	*net.TCPListener
	draining atomic.Bool
}

// Accept is the socket's Accept, except that once the drain has begun a
// failure — the expired deadline stopServing sets — reports the listener
// closed, which ends the HTTP server's accept loop. A connection it still
// takes goes to the server, which serves it and waits for it on Shutdown.
func (l *drainListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err != nil && l.draining.Load() {
		err = net.ErrClosed
	}
	return c, err
}

// Close closes the socket, unless the drain has begun: then the HTTP
// server's Serve and Shutdown, which both close their listener, leave it to
// drainQueue.
func (l *drainListener) Close() error {
	if l.draining.Load() {
		return nil
	}
	return l.TCPListener.Close()
}

// stopServing ends the HTTP server's accept loop and, where the platform
// allows, stops the kernel from completing new handshakes (stopHandshakes),
// so the queue drainQueue empties cannot refill.
func (l *drainListener) stopServing() {
	stopHandshakes(l.TCPListener)
	l.draining.Store(true)
	l.SetDeadline(time.Now()) // wake an Accept blocked in the server's loop
}

// drainQueue answers every connection the kernel queue holds with 503
// draining, then closes the socket. Call it after the HTTP server's accept
// loop has returned.
func (l *drainListener) drainQueue() error {
	for {
		l.SetDeadline(time.Now().Add(10 * time.Millisecond))
		c, err := l.TCPListener.Accept()
		if err != nil {
			break
		}
		answerDraining(c)
	}
	return l.TCPListener.Close()
}

// drainingResponse is the /readyz draining answer, sent on a connection the
// HTTP server never saw.
const drainingResponse = "HTTP/1.1 503 Service Unavailable\r\n" +
	"Content-Type: application/json\r\n" +
	"Connection: close\r\n" +
	"Content-Length: 22\r\n\r\n" +
	`{"status":"draining"}` + "\n"

// answerDraining reads the connection's request, answers 503 draining with
// Connection: close, and closes lingeringly: it half-closes and reads until
// the client hangs up, so no unread byte on either side turns the close
// into a reset.
func answerDraining(c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Second))
	br := bufio.NewReader(c)
	if req, err := http.ReadRequest(br); err == nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	io.WriteString(c, drainingResponse)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	io.Copy(io.Discard, br)
}
