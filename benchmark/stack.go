package main

import (
	"fmt"
	"net"
	"net/http"
	"os"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/obs"
	"github.com/datamarket/shield/internal/wire"
)

// workloadFsync is the fsync mode of every journal the four workloads
// and the ladder write. The journals live inside the checkout, on
// whatever disk that is, and a device flush per commit group measures
// that disk (the same code ran at 3 052 and 1 893 durable ops/s a day
// apart on this sandbox). So the workloads leave WithFsync off — group
// commit, ack-after-write and every other line of the commit path still
// run — and the fsync path is measured once, by the durable probe.
const workloadFsync = "off"

// marketConfig is marketd's default engine (and the load rig's): a
// 40-candidate linear grid over the bid range, epochs of 8 bids.
func marketConfig(seed uint64) market.Config {
	return market.Config{
		Engine: core.Config{
			Candidates:    auction.LinearGrid(1, 200, 40),
			EpochSize:     8,
			BidsPerPeriod: 1,
			MinBid:        1,
		},
		Seed:   seed,
		Shards: market.DefaultShards,
	}
}

// seedRecords is how many journal records seeding a store writes:
// genesis, the seller, the datasets and the buyers.
func seedRecords(buyers int) int64 { return int64(1 + 1 + marketDatasets + buyers) }

// openStore creates a journaled market over a fresh segmented store in
// dir — group commit on, as marketd runs it — and seeds the catalog.
func openStore(dir string, seed uint64, buyers int, sc journal.StoreConfig, tel *obs.Telemetry, fsync bool) (*journal.Market, error) {
	opts := []journal.Option{journal.WithGroupCommit(0)}
	if tel != nil {
		opts = append(opts, journal.WithTelemetry(tel))
	}
	if fsync {
		opts = append(opts, journal.WithFsync())
	}
	jm, _, err := journal.OpenStore(marketConfig(seed), dir, sc, opts...)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	buyerIDs, datasets := marketIDs(buyers, marketDatasets)
	err = jm.RegisterSeller(seller)
	for i := 0; err == nil && i < len(datasets); i++ {
		err = jm.UploadDataset(seller, datasets[i])
	}
	for i := 0; err == nil && i < len(buyerIDs); i++ {
		err = jm.RegisterBuyer(buyerIDs[i])
	}
	if err != nil {
		_ = jm.Close()
		return nil, fmt.Errorf("seeding store: %w", err)
	}
	return jm, nil
}

// stack is marketd in process: one journaled market over a segmented
// store, behind an HTTP listener and a wire listener on loopback,
// sharing one telemetry registry.
type stack struct {
	jm       *journal.Market
	tel      *obs.Telemetry
	dir      string
	httpAddr string
	wireAddr string

	httpSrv *http.Server
	wireLn  net.Listener
}

func startStack(dir string, seed uint64, buyers int, sc journal.StoreConfig) (*stack, error) {
	// Tracing stays off (sample interval 0): the server's stage
	// histograms are read, its sampled traces are not.
	tel := &obs.Telemetry{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(256, 0, seed)}
	jm, err := openStore(dir, seed, buyers, sc, tel, false)
	if err != nil {
		return nil, err
	}
	s := &stack{jm: jm, tel: tel, dir: dir}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = jm.Close()
		return nil, err
	}
	s.wireLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = httpLn.Close()
		_ = jm.Close()
		return nil, err
	}
	s.httpAddr = "http://" + httpLn.Addr().String()
	s.wireAddr = s.wireLn.Addr().String()
	s.httpSrv = &http.Server{Handler: httpapi.NewJournaled(jm).WithTelemetry(tel).Routes()}
	go func() { _ = s.httpSrv.Serve(httpLn) }()
	ws := wire.NewServer(jm).WithTelemetry(tel)
	go func() { _ = ws.Serve(s.wireLn) }()
	return s, nil
}

// close stops the listeners, closes the journal and removes the store
// directory. Wire connections end when their clients close them.
func (s *stack) close() error {
	_ = s.httpSrv.Close()
	_ = s.wireLn.Close()
	err := s.jm.Close()
	_ = os.RemoveAll(s.dir)
	return err
}

// dial opens one client on the named transport. An HTTP client gets a
// transport of its own holding one keep-alive connection, so N workers
// are N connections on either transport.
func (s *stack) dial(transport string) (client.Client, func(), error) {
	if transport == "wire" {
		c, err := client.DialWire(s.wireAddr)
		if err != nil {
			return nil, nil, err
		}
		return c, func() { _ = c.Close() }, nil
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	c := client.NewHTTP(s.httpAddr, client.WithHTTPDoer(&http.Client{Transport: tr}))
	return c, tr.CloseIdleConnections, nil
}
