package httpapi

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/auth"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/journal"
	"github.com/datamarket/shield/internal/market"
)

func TestAuthRequiredBids(t *testing.T) {
	m := market.MustNew(market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 4,
	})
	verifier := auth.NewVerifier(nil)
	ts := httptest.NewServer(NewServer(m).WithAuth(verifier).Routes())
	t.Cleanup(ts.Close)

	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})

	// Registration returns a credential.
	resp, out := post(t, ts, "/v1/buyers", map[string]string{"id": "bob"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	secret, ok := out["credential"].(string)
	if !ok || secret == "" {
		t.Fatalf("no credential issued: %v", out)
	}
	cred := auth.Credential{BuyerID: "bob", Secret: secret}

	// Unsigned bids are rejected.
	resp, _ = post(t, ts, "/v1/bids", map[string]any{"buyer": "bob", "dataset": "d", "amount": 500.0})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned bid: %d", resp.StatusCode)
	}

	// A correctly signed bid wins.
	signed, err := auth.Sign(cred, "d", 500_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, out = post(t, ts, "/v1/bids", map[string]any{
		"buyer": "bob", "dataset": "d",
		"amount_micros": signed.AmountMicros, "nonce": signed.Nonce, "mac": signed.MAC,
	})
	if resp.StatusCode != http.StatusOK || out["allocated"] != true {
		t.Fatalf("signed bid: %d %v", resp.StatusCode, out)
	}

	// Replaying the same signature is rejected.
	resp, _ = post(t, ts, "/v1/bids", map[string]any{
		"buyer": "bob", "dataset": "d",
		"amount_micros": signed.AmountMicros, "nonce": signed.Nonce, "mac": signed.MAC,
	})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("replayed bid: %d", resp.StatusCode)
	}

	// A signature under the wrong name is rejected.
	post(t, ts, "/v1/buyers", map[string]string{"id": "eve"})
	forged, err := auth.Sign(cred, "d", 400_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts, "/v1/bids", map[string]any{
		"buyer": "eve", "dataset": "d",
		"amount_micros": forged.AmountMicros, "nonce": forged.Nonce, "mac": forged.MAC,
	})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("false-name bid: %d", resp.StatusCode)
	}
}

func TestJournaledServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	// No checkpoint cadence, so none on close either: every restart
	// below replays the whole log.
	sc := journal.StoreConfig{CheckpointEvery: -1}
	cfg := market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 6,
	}

	// First life: run a workload through a journaled Server.
	jm, replayed, err := journal.OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("fresh journal replayed %d events", replayed)
	}
	ts := httptest.NewServer(NewJournaled(jm).Routes())
	post(t, ts, "/v1/sellers", map[string]string{"id": "s"})
	post(t, ts, "/v1/datasets", map[string]string{"seller": "s", "id": "d"})
	post(t, ts, "/v1/buyers", map[string]string{"id": "b1"})
	post(t, ts, "/v1/buyers", map[string]string{"id": "b2"})
	if resp, out := post(t, ts, "/v1/bids", map[string]any{"buyer": "b1", "dataset": "d", "amount": 500.0}); resp.StatusCode != http.StatusOK || out["allocated"] != true {
		t.Fatalf("bid 1: %d %v", resp.StatusCode, out)
	}
	post(t, ts, "/v1/tick", map[string]any{})
	var txs1 []market.Transaction
	get(t, ts, "/v1/transactions", &txs1)
	revenue1 := jm.Revenue()
	ts.Close()
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: restart from the journal and continue.
	jm2, replayed, err := journal.OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("restart replayed nothing")
	}
	if jm2.Revenue() != revenue1 {
		t.Fatalf("restored revenue %v != %v", jm2.Revenue(), revenue1)
	}
	ts2 := httptest.NewServer(NewJournaled(jm2).Routes())
	t.Cleanup(ts2.Close)
	// The second buyer can still trade after the restart.
	if resp, out := post(t, ts2, "/v1/bids", map[string]any{"buyer": "b2", "dataset": "d", "amount": 500.0}); resp.StatusCode != http.StatusOK || out["allocated"] != true {
		t.Fatalf("post-restart bid: %d %v", resp.StatusCode, out)
	}
	if err := jm2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: both lives' events replay cleanly.
	jm3, replayed, err := journal.OpenStore(cfg, dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if jm3.Revenue() <= revenue1 {
		t.Fatalf("third-life revenue %v not above first-life %v", jm3.Revenue(), revenue1)
	}
	if len(jm3.Transactions()) != 2 {
		t.Fatalf("transactions after two lives: %d", len(jm3.Transactions()))
	}
	_ = replayed

	// Corrupt journals are refused.
	if err := jm3.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000000.seg"), []byte("{bogus\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := journal.OpenStore(cfg, dir, sc); err == nil {
		t.Fatal("corrupt journal accepted")
	}
}
