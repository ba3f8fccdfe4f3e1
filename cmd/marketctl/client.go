package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/datamarket/shield/internal/apierr"
	api "github.com/datamarket/shield/internal/client"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/render"
)

// client holds marketctl's connection settings; run turns it into a
// typed internal/client.Client per invocation. It survives as a plain
// struct (rather than the typed client directly) so flags and tests
// can populate it field by field.
type client struct {
	base       string
	credential string
	nonce      uint64
	// token, when set, is sent as a bearer token on every request —
	// the operator endpoints (metrics, stats, traces) require it when
	// the server runs with auth.
	token string
	// httpClient is swappable in tests; nil selects http.DefaultClient.
	httpClient *http.Client
}

func (c *client) http() *http.Client {
	if c.httpClient != nil {
		return c.httpClient
	}
	return http.DefaultClient
}

// dial builds the typed client for the configured target. Every scheme
// internal/client accepts works here, so -server can point at the
// binary wire port ("wire://host:port") as well as the HTTP API.
func (c *client) dial() (api.Client, error) {
	var opts []api.Option
	if c.credential != "" {
		opts = append(opts, api.WithCredential(c.credential, c.nonce))
	}
	if c.token != "" {
		opts = append(opts, api.WithOperatorToken(c.token))
	}
	if c.httpClient != nil {
		opts = append(opts, api.WithHTTPDoer(c.httpClient))
	}
	return api.Dial(c.base, opts...)
}

// decorate rewrites a server-reported failure into the CLI's
// "server: <message> [<code>]" shape; transport errors pass through.
func decorate(err error) error {
	var e *apierr.APIError
	if errors.As(err, &e) {
		return fmt.Errorf("server: %s [%s]", e.Message, e.Code)
	}
	return err
}

// run dispatches one marketctl command.
func run(c *client, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("no command (see marketctl -h)")
	}
	cmd, rest := args[0], args[1:]
	need := func(n int, usage string) error {
		if len(rest) != n {
			return fmt.Errorf("usage: marketctl %s", usage)
		}
		return nil
	}

	// metrics and health speak raw HTTP: the Prometheus exposition and
	// the health endpoints sit outside the typed API on purpose.
	switch cmd {
	case "metrics":
		if err := need(0, "metrics"); err != nil {
			return err
		}
		return c.metrics(out)
	case "health":
		if err := need(0, "health"); err != nil {
			return err
		}
		return c.health(out)
	case "journal-info":
		// Offline: inspects a segmented journal directory on local disk,
		// no server required.
		if len(rest) == 2 && rest[0] == "-dump" {
			return journalDump(rest[1], out)
		}
		if err := need(1, "journal-info [-dump] <journal-dir>"); err != nil {
			return err
		}
		return journalInfo(rest[0], out)
	case "journal-verify":
		if err := need(1, "journal-verify <journal-dir>"); err != nil {
			return err
		}
		return journalVerify(rest[0], out)
	case "journal-migrate":
		if err := need(1, "journal-migrate <journal-dir|journal-file>"); err != nil {
			return err
		}
		dir, files, err := journal.Migrate(rest[0])
		if err == nil {
			fmt.Fprintf(out, "journal %s: %d files rewritten; serve it with marketd -journal-dir %s\n", dir, files, dir)
		}
		return err
	}

	cl, err := c.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()

	switch cmd {
	case "register-seller":
		if err := need(1, "register-seller <id>"); err != nil {
			return err
		}
		if err := cl.RegisterSeller(ctx, market.SellerID(rest[0])); err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "seller %s registered\n", rest[0])
		return nil

	case "register-buyer":
		if err := need(1, "register-buyer <id>"); err != nil {
			return err
		}
		cred, err := cl.RegisterBuyer(ctx, market.BuyerID(rest[0]))
		if err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "buyer %s registered\n", rest[0])
		if cred != "" {
			fmt.Fprintf(out, "credential (store securely, shown once): %s\n", cred)
		}
		return nil

	case "upload":
		if err := need(2, "upload <seller> <dataset>"); err != nil {
			return err
		}
		if err := cl.UploadDataset(ctx, market.SellerID(rest[0]), market.DatasetID(rest[1])); err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "dataset %s uploaded by %s\n", rest[1], rest[0])
		return nil

	case "withdraw":
		if err := need(2, "withdraw <seller> <dataset>"); err != nil {
			return err
		}
		if err := cl.WithdrawDataset(ctx, market.SellerID(rest[0]), market.DatasetID(rest[1])); err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "dataset %s withdrawn by %s\n", rest[1], rest[0])
		return nil

	case "compose":
		if len(rest) < 2 {
			return errors.New("usage: marketctl compose <dataset> <part> [<part>...]")
		}
		parts := make([]market.DatasetID, len(rest)-1)
		for i, p := range rest[1:] {
			parts[i] = market.DatasetID(p)
		}
		if err := cl.ComposeDataset(ctx, market.DatasetID(rest[0]), parts...); err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "dataset %s composed from %v\n", rest[0], rest[1:])
		return nil

	case "bid":
		if err := need(3, "bid <buyer> <dataset> <amount>"); err != nil {
			return err
		}
		amount, err := strconv.ParseFloat(rest[2], 64)
		if err != nil || amount <= 0 {
			return fmt.Errorf("bad amount %q", rest[2])
		}
		d, err := cl.SubmitBid(ctx, market.BuyerID(rest[0]), market.DatasetID(rest[1]), amount)
		if err != nil {
			return decorate(err)
		}
		if d.Allocated {
			fmt.Fprintf(out, "won: %s acquired %s for %.6f\n", rest[0], rest[1], d.PricePaid.Float())
		} else {
			fmt.Fprintf(out, "lost: %s must wait %d period(s) before bidding on %s again\n",
				rest[0], d.WaitPeriods, rest[1])
		}
		return nil

	case "bid-batch":
		if len(rest) == 0 {
			return errors.New("usage: marketctl bid-batch <buyer>:<dataset>:<amount> [...]")
		}
		reqs := make([]market.BidRequest, len(rest))
		for i, spec := range rest {
			parts := strings.SplitN(spec, ":", 3)
			if len(parts) != 3 {
				return fmt.Errorf("bad bid spec %q (want <buyer>:<dataset>:<amount>)", spec)
			}
			amount, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || amount <= 0 {
				return fmt.Errorf("bad amount %q in bid spec %q", parts[2], spec)
			}
			reqs[i] = market.BidRequest{
				Buyer:   market.BuyerID(parts[0]),
				Dataset: market.DatasetID(parts[1]),
				Amount:  amount,
			}
		}
		results, err := cl.SubmitBids(ctx, reqs)
		if err != nil {
			return decorate(err)
		}
		t := render.NewTable("bid", "outcome", "detail")
		for i, res := range results {
			var e *apierr.APIError
			switch {
			case errors.As(res.Err, &e):
				t.AddRowf(rest[i], "error", fmt.Sprintf("%s [%s]", e.Message, e.Code))
			case res.Err != nil:
				t.AddRowf(rest[i], "error", res.Err.Error())
			case res.Decision.Allocated:
				t.AddRowf(rest[i], "won", fmt.Sprintf("paid %.6f", res.Decision.PricePaid.Float()))
			default:
				t.AddRowf(rest[i], "lost", fmt.Sprintf("wait %d period(s)", res.Decision.WaitPeriods))
			}
		}
		return t.Render(out)

	case "tick":
		if err := need(0, "tick"); err != nil {
			return err
		}
		period, err := cl.Tick(ctx)
		if err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "period %d\n", period)
		return nil

	case "datasets":
		if err := need(0, "datasets"); err != nil {
			return err
		}
		ds, err := cl.Datasets(ctx)
		if err != nil {
			return decorate(err)
		}
		for _, d := range ds {
			fmt.Fprintln(out, string(d))
		}
		return nil

	case "stats":
		if err := need(1, "stats <dataset>"); err != nil {
			return err
		}
		stats, err := cl.Stats(ctx, market.DatasetID(rest[0]))
		if err != nil {
			return decorate(err)
		}
		t := render.NewTable("metric", "value")
		t.AddRowf("bids", stats.Bids)
		t.AddRowf("allocations", stats.Allocations)
		t.AddRowf("epochs", stats.Epochs)
		t.AddRowf("revenue", stats.Revenue)
		t.AddRowf("posting price", stats.PostingPrice)
		t.AddRowf("most likely price", stats.MostLikelyPrice)
		return t.Render(out)

	case "balance":
		if err := need(1, "balance <seller>"); err != nil {
			return err
		}
		bal, err := cl.SellerBalance(ctx, market.SellerID(rest[0]))
		if err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "%.6f\n", bal.Float())
		return nil

	case "wait":
		if err := need(2, "wait <buyer> <dataset>"); err != nil {
			return err
		}
		w, err := cl.WaitRemaining(ctx, market.BuyerID(rest[0]), market.DatasetID(rest[1]))
		if err != nil {
			return decorate(err)
		}
		fmt.Fprintf(out, "%d\n", w)
		return nil

	case "transactions":
		if err := need(0, "transactions"); err != nil {
			return err
		}
		txs, err := cl.Transactions(ctx)
		if err != nil {
			return decorate(err)
		}
		t := render.NewTable("seq", "buyer", "dataset", "price", "period")
		for _, tx := range txs {
			t.AddRowf(tx.Seq, string(tx.Buyer), string(tx.Dataset), tx.Price.Float(), tx.Period)
		}
		return t.Render(out)

	default:
		return fmt.Errorf("unknown command %q (see marketctl -h)", cmd)
	}
}

// metrics streams the raw Prometheus exposition.
func (c *client) metrics(out io.Writer) error {
	req, err := http.NewRequest("GET", c.base+"/metrics", nil)
	if err != nil {
		return err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// health reports liveness and readiness, exiting nonzero when either
// check fails. Raw requests rather than the typed client: /readyz
// answers 503 with a plain status body, not the error envelope, and
// the reason must survive into the output.
func (c *client) health(out io.Writer) error {
	check := func(path string) (int, map[string]string, error) {
		resp, err := c.http().Get(c.base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var body map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body, nil
	}
	liveCode, live, err := check("/healthz")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "live:  %s (HTTP %d)\n", live["status"], liveCode)
	readyCode, ready, err := check("/readyz")
	if err != nil {
		return err
	}
	if reason := ready["reason"]; reason != "" {
		fmt.Fprintf(out, "ready: %s (HTTP %d): %s\n", ready["status"], readyCode, reason)
	} else {
		fmt.Fprintf(out, "ready: %s (HTTP %d)\n", ready["status"], readyCode)
	}
	if liveCode != http.StatusOK || readyCode != http.StatusOK {
		return errors.New("server is not healthy")
	}
	return nil
}
