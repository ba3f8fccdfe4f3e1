package client

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/datamarket/shield/internal/httpapi"
	"github.com/datamarket/shield/internal/market"
)

// TestHTTPKeepsOneConnection: a sequence of calls reuses one keep-alive
// connection whether or not the client decodes the response body — a
// registration, an upload and a health check read nothing from theirs,
// a failed Stats reads only its envelope — because net/http pools a
// connection only once its body has been read to the end.
func TestHTTPKeepsOneConnection(t *testing.T) {
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(httpapi.NewServer(testMarket(t)).Routes())
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewHTTP(srv.URL, WithHTTPDoer(srv.Client()))
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := c.RegisterSeller(ctx, market.SellerID(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.UploadDataset(ctx, "s0", market.DatasetID(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Period(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(ctx, "no-such-dataset"); err == nil {
			t.Fatal("stats of an unknown dataset succeeded")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("250 sequential calls opened %d connections, want 1", n)
	}
}
