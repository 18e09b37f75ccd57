package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDropsStalledHeaders is the slow-loris guard: `qckpt serve`'s
// http.Server carries header and idle deadlines, and a peer that opens a
// connection and never finishes its request headers is disconnected
// rather than holding a goroutine and a socket forever. The behavioural
// half runs the same server with the header deadline shortened so the
// test does not wait out the production constant.
func TestServeDropsStalledHeaders(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("serve timeouts: header %v idle %v, want %v / %v (both positive)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, never the blank line that ends them.
	if _, err := io.WriteString(conn, "GET /v1/caps HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The read returns once the server hangs up (with or without a 408
	// on the way out); only our own deadline expiring means it never did.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a connection with unfinished headers open: %v", err)
	}
}
