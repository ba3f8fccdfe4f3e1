package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

// recorder keeps the bytes its client connections write and read: a
// client call's request and the server's answer.
type recorder struct {
	mu        sync.Mutex
	sent, got bytes.Buffer
}

type recConn struct {
	net.Conn
	r *recorder
}

func (c recConn) Write(b []byte) (int, error) {
	c.r.mu.Lock()
	c.r.sent.Write(b)
	c.r.mu.Unlock()
	return c.Conn.Write(b)
}

func (c recConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.r.mu.Lock()
	c.r.got.Write(b[:n])
	c.r.mu.Unlock()
	return n, err
}

func (r *recorder) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := new(net.Dialer).DialContext(ctx, network, addr)
	return recConn{c, r}, err
}

// take returns what was sent and got since the last take.
func (r *recorder) take() (sent, got []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sent, got = bytes.Clone(r.sent.Bytes()), bytes.Clone(r.got.Bytes())
	r.sent.Reset()
	r.got.Reset()
	return sent, got
}

// readMessage reads one HTTP/1.1 message, its head and its
// Content-Length body, from conn into buf and returns its length.
func readMessage(conn net.Conn, buf []byte) (int, error) {
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		if n += m; err != nil {
			return n, err
		}
		if head := bytes.Index(buf[:n], []byte("\r\n\r\n")); head >= 0 && n >= head+4+contentLength(buf[:head]) {
			return n, nil
		}
	}
}

func contentLength(head []byte) int {
	i := bytes.Index(head, []byte("\r\nContent-Length: "))
	v := 0
	for j := i + 18; i >= 0 && j < len(head) && '0' <= head[j] && head[j] <= '9'; j++ {
		v = v*10 + int(head[j]-'0')
	}
	return v
}

// mallocsPer is the process's heap allocations per call of f(0..n-1).
func mallocsPer(n int, f func(i int)) float64 {
	f(n) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// budgetToolchain is the Go release the loopback budgets were read on.
// Nearly all of what they count is net/http's, so on another release the
// levels are logged, not gated.
const budgetToolchain = "go1.24.0"

// TestLoopbackAllocs splits an HTTP request's allocations between its
// two sides, over real loopback TCP, for each of http_read_mix's calls.
// client.NewHTTP calls Routes() on a journaled store once per call,
// through a dialer that records the request and the answer; then
//
//   - server: a raw client replays each recorded request against the
//     server, so the headers are the real ones, reading every answer into
//     one reused buffer and allocating nothing itself. Nearly all of what
//     it counts is net/http's server (the request, its header map,
//     context and body reader; a route's path-value matches); the
//     shield's own is requestState and the minted request ID, and for a
//     bid the decoded names and the event. (With the request copied to
//     carry its context and the answers boxed, the levels were 24, 26,
//     25, 42 and 26.)
//   - client: client.NewHTTP, on a transport configured as the
//     benchmark's, calls a listener that answers each request line with
//     the recorded answer, read into one reused buffer. Nearly all of
//     what it counts is net/http's client transport (the request and its
//     header map, the persistConn's write and read hand-offs, the
//     response and its body reader); the shield's own is a target whose
//     path holds an ID and a bid's body and its encoding. (With every
//     target and the Content-Type value built per call, the period call
//     read 49 and the bid 62.)
//
// Each call's budget on each side is one allocation above the level it
// read on budgetToolchain.
func TestLoopbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	gated := runtime.Version() == budgetToolchain
	if !gated {
		t.Logf("budgets were read on %s, this is %s: logged, not gated", budgetToolchain, runtime.Version())
	}
	jm, _, err := journal.OpenStore(testConfig(), t.TempDir(), journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	ts := httptest.NewServer(NewJournaled(jm).Routes())
	defer ts.Close()

	const runs = 200
	rec := new(recorder)
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DialContext: rec.dial}
	defer tr.CloseIdleConnections()
	live := client.NewHTTP(ts.URL, client.WithHTTPDoer(&http.Client{Transport: tr}))
	ctx := context.Background()
	buyer := func(i int) market.BuyerID { return market.BuyerID(fmt.Sprintf("b%03d", i)) }
	if err := live.RegisterSeller(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if err := live.UploadDataset(ctx, "s", "d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= runs+1; i++ {
		if _, err := live.RegisterBuyer(ctx, buyer(i)); err != nil {
			t.Fatal(err)
		}
	}
	b0 := buyer(0)
	calls := []struct {
		name           string
		call           func(client.Client) error
		server, client float64 // budgets
		reqs           [][]byte
		answer         []byte
	}{
		{name: "period", server: 24, client: 49, call: func(c client.Client) error { _, err := c.Period(ctx); return err }},
		{name: "stats", server: 25, client: 50, call: func(c client.Client) error { _, err := c.Stats(ctx, "d"); return err }},
		{name: "balance", server: 25, client: 50, call: func(c client.Client) error { _, err := c.SellerBalance(ctx, "s"); return err }},
		{name: "bid", server: 40, client: 60, call: func(c client.Client) error { _, err := c.SubmitBid(ctx, b0, "d", 2); return err }},
		{name: "wait", server: 25, client: 51, call: func(c client.Client) error { _, err := c.WaitRemaining(ctx, b0, "d"); return err }},
	}
	rec.take()
	for i := range calls {
		cl := &calls[i]
		if err := cl.call(live); err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}
		req, answer := rec.take()
		cl.reqs, cl.answer = [][]byte{req}, answer
		if cl.name == "bid" { // one bid per buyer, so every replay is decided
			for j := 1; j <= runs+1; j++ {
				cl.reqs = append(cl.reqs, bytes.Replace(req, []byte(b0), []byte(buyer(j)), 1))
			}
		}
	}
	check := func(t *testing.T, side, name string, per, budget float64) {
		t.Logf("%-7s %.2f allocations per call (budget %.0f)", name, per, budget)
		if gated && per > budget {
			t.Errorf("the %s makes %.2f allocations per %s call, want <= %.0f", side, per, name, budget)
		}
	}

	t.Run("server", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		buf := make([]byte, 16<<10)
		for _, cl := range calls {
			check(t, "server", cl.name, mallocsPer(runs, func(i int) {
				if _, err := conn.Write(cl.reqs[(i+1)%len(cl.reqs)]); err != nil {
					t.Fatal(err)
				}
				n, err := readMessage(conn, buf)
				if err != nil || !bytes.HasPrefix(buf[:n], []byte("HTTP/1.1 200 ")) {
					t.Fatalf("%s: %q, %v", cl.name, buf[:n], err)
				}
			}), cl.server)
		}
	})

	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var served sync.WaitGroup
		defer served.Wait()
		defer ln.Close()
		served.Add(1)
		go func() {
			defer served.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				served.Add(1)
				go func() {
					defer served.Done()
					defer conn.Close()
					buf := make([]byte, 16<<10)
					for {
						n, err := readMessage(conn, buf)
						if err != nil {
							return
						}
						for _, cl := range calls {
							if line := cl.reqs[0][:bytes.IndexByte(cl.reqs[0], '\n')+1]; bytes.HasPrefix(buf[:n], line) {
								_, _ = conn.Write(cl.answer)
								break
							}
						}
					}
				}()
			}
		}()

		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		c := client.NewHTTP("http://"+ln.Addr().String(), client.WithHTTPDoer(&http.Client{Transport: tr}))
		for _, cl := range calls {
			check(t, "client", cl.name, mallocsPer(1000, func(int) {
				if err := cl.call(c); err != nil {
					t.Fatalf("%s: %v", cl.name, err)
				}
			}), cl.client)
		}
	})
}
