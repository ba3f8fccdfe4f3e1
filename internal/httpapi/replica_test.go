package httpapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/datamarket/shield/internal/apierr"
	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
)

// fakeReplica is a ReplicaSource with scriptable state, standing in for
// internal/replica.Follower (which implements the same signatures; the
// end-to-end pairing is covered by the daemon and load-rig tests).
type fakeReplica struct {
	m        *market.Market
	ready    error
	applied  int64
	leader   int64
	lag      float64
	connstat bool
	persist  error
}

func (f *fakeReplica) Market() *market.Market { return f.m }
func (f *fakeReplica) Ready() error           { return f.ready }
func (f *fakeReplica) PersistErr() error      { return f.persist }
func (f *fakeReplica) Staleness() (int64, int64, float64, bool) {
	return f.applied, f.leader, f.lag, f.connstat
}

func replicaMarket(t *testing.T) *market.Market {
	t.Helper()
	m := market.MustNew(market.Config{
		Engine: core.Config{
			Candidates: auction.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 9,
	})
	if err := m.RegisterSeller("acme"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("acme", "sales"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReplicaServesReads(t *testing.T) {
	src := &fakeReplica{m: replicaMarket(t), applied: 3, leader: 3, connstat: true}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	var datasets []string
	resp := get(t, ts, "/v1/datasets", &datasets)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/datasets on replica: %d", resp.StatusCode)
	}
	if len(datasets) != 1 || datasets[0] != "sales" {
		t.Fatalf("datasets = %v, want [sales]", datasets)
	}

	var period map[string]int
	if resp := get(t, ts, "/v1/period", &period); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/period on replica: %d", resp.StatusCode)
	}
}

func TestReplicaRejectsWrites(t *testing.T) {
	src := &fakeReplica{m: replicaMarket(t), connstat: true}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/sellers", map[string]string{"id": "s2"}},
		{"/v1/buyers", map[string]string{"id": "b1"}},
		{"/v1/datasets", map[string]string{"seller": "acme", "id": "d2"}},
		{"/v1/bids", map[string]any{"buyer": "b1", "dataset": "sales", "amount": 20}},
		{"/v1/tick", map[string]string{}},
	} {
		resp, out := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("POST %s on replica: status %d, want 403 (%v)", tc.path, resp.StatusCode, out)
		}
		env, _ := out["error"].(map[string]any)
		if env["code"] != apierr.CodeReadOnlyReplica {
			t.Fatalf("POST %s on replica: code %v, want %s", tc.path, env["code"], apierr.CodeReadOnlyReplica)
		}
	}
}

func TestReplicaBatchBidsFailPerSlot(t *testing.T) {
	src := &fakeReplica{m: replicaMarket(t), connstat: true}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/bids/batch", map[string]any{
		"bids": []map[string]any{
			{"buyer": "b1", "dataset": "sales", "amount": 20},
			{"buyer": "b2", "dataset": "sales", "amount": 30},
		},
	})
	// The batch endpoint succeeds as a call; each slot carries the
	// read-only rejection.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch on replica: status %d", resp.StatusCode)
	}
	results, _ := out["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results = %v", out)
	}
	for i, r := range results {
		env, _ := r.(map[string]any)["error"].(map[string]any)
		if env == nil || env["code"] != apierr.CodeReadOnlyReplica {
			t.Fatalf("batch slot %d: %v, want %s", i, r, apierr.CodeReadOnlyReplica)
		}
	}
}

func TestReplicaUnavailableBeforeCatchUp(t *testing.T) {
	src := &fakeReplica{m: nil, ready: apierr.ErrReplicaUnavailable}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	var out map[string]any
	resp := get(t, ts, "/v1/period", &out)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read before catch-up: status %d, want 503 (%v)", resp.StatusCode, out)
	}
	env, _ := out["error"].(map[string]any)
	if env["code"] != apierr.CodeReplicaUnavailable {
		t.Fatalf("read before catch-up: code %v, want %s", env["code"], apierr.CodeReplicaUnavailable)
	}
}

func TestReplicaReadyzCarriesStaleness(t *testing.T) {
	src := &fakeReplica{m: replicaMarket(t), applied: 41, leader: 44, lag: 0.25, connstat: true}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	var out map[string]any
	if resp := get(t, ts, "/readyz", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d (%v)", resp.StatusCode, out)
	}
	if out["status"] != "ready" || out["role"] != "replica" {
		t.Fatalf("readyz body: %v", out)
	}
	if out["applied_seq"] != float64(41) || out["leader_seq"] != float64(44) {
		t.Fatalf("readyz staleness: %v", out)
	}

	// A lagging replica turns unready and says why.
	src.ready = apierr.ErrReplicaUnavailable
	var unready map[string]any
	if resp := get(t, ts, "/readyz", &unready); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready readyz: %d", resp.StatusCode)
	}
	if unready["status"] != "unready" || unready["reason"] == "" {
		t.Fatalf("unready readyz body: %v", unready)
	}
}

// TestReplicaReadyzNamesAFailedStore: a replica whose local store has
// failed stays ready — it serves on from memory — and its /readyz body
// carries the failure as "persist_error"; a healthy one's has no such
// field.
func TestReplicaReadyzNamesAFailedStore(t *testing.T) {
	src := &fakeReplica{m: replicaMarket(t), applied: 7, leader: 7, connstat: true}
	ts := httptest.NewServer(NewReplica(src).Routes())
	defer ts.Close()

	var healthy map[string]any
	if resp := get(t, ts, "/readyz", &healthy); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d (%v)", resp.StatusCode, healthy)
	}
	if _, ok := healthy["persist_error"]; ok {
		t.Fatalf("a healthy store's readyz names a failure: %v", healthy)
	}

	src.persist = errors.New("replica: local store: open seg: no such file or directory")
	var failed map[string]any
	if resp := get(t, ts, "/readyz", &failed); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a failed store: %d (%v)", resp.StatusCode, failed)
	}
	if failed["status"] != "ready" || failed["persist_error"] != src.persist.Error() {
		t.Fatalf("readyz with a failed store: %v, want status ready and persist_error %q", failed, src.persist)
	}
}
