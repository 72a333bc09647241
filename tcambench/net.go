package main

// Loopback plumbing: every server and the coordinator listen on
// 127.0.0.1 in this process, and each load connection is its own
// single-connection keep-alive client.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
)

// listener is one http.Server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close closes the listener and every connection, and waits for Serve
// to return. It runs after the last phase, so nothing is in flight; a
// graceful Shutdown would wait out connections a client dialed but
// never used.
func (l *listener) close() error {
	err := l.srv.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is a client pinned to one keep-alive connection.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// get fetches url and returns the status and body; the body is valid
// until the next call on c.
func (c *conn) get(url string) (int, []byte, error) {
	resp, err := c.c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	return c.read(resp)
}

func (c *conn) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return c.read(resp)
}

func (c *conn) read(resp *http.Response) (int, []byte, error) {
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// discardWriter is the in-process ResponseWriter of the handler rungs:
// it keeps the status and the body bytes, reused across calls.
type discardWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (d *discardWriter) reset() {
	for k := range d.h {
		delete(d.h, k)
	}
	d.status = 0
	d.body.Reset()
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}

func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return d.body.Write(b)
}

func (d *discardWriter) WriteHeader(code int) { d.status = code }
