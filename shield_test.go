package shield_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	shield "github.com/datamarket/shield"
)

// The facade tests exercise the public API exactly as a downstream user
// would, without touching internal packages.

func TestQuickstartFlow(t *testing.T) {
	engine, err := shield.NewEngine(shield.EngineConfig{
		Candidates: shield.LinearGrid(1, 200, 40),
		EpochSize:  8,
		MinBid:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	win := engine.SubmitBid(1000)
	if !win.Allocated || win.Price <= 0 {
		t.Fatalf("high bid decision = %+v", win)
	}
	lose := engine.SubmitBid(0.5)
	if lose.Allocated {
		t.Fatal("sub-floor bid won")
	}
	if lose.Wait <= 0 {
		t.Fatal("loser got no Time-Shield wait")
	}
}

func TestMarketFlow(t *testing.T) {
	m, err := shield.NewMarket(shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates: shield.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("acme"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("acme", "sales-2025"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("bob"); err != nil {
		t.Fatal(err)
	}
	d, err := m.SubmitBid("bob", "sales-2025", 500)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allocated {
		t.Fatal("high bid lost")
	}
	bal, err := m.SellerBalance("acme")
	if err != nil || bal != d.PricePaid {
		t.Fatalf("seller balance %v, %v", bal, err)
	}
}

func TestSessionWithStrategies(t *testing.T) {
	m, err := shield.NewMarket(shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates:    shield.LinearGrid(10, 100, 10),
			EpochSize:     4,
			BidsPerPeriod: 2,
			MinBid:        1,
		},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []shield.BuyerID{"t1", "t2", "strat"} {
		if err := m.RegisterBuyer(id); err != nil {
			t.Fatal(err)
		}
	}
	res, err := shield.RunSession(m, "d", []shield.Participant{
		{ID: "t1", Strategy: shield.NewTruthfulBuyer(95), Deadline: 19},
		{ID: "t2", Strategy: shield.NewTruthfulBuyer(90), Deadline: 19},
		{ID: "strat", Strategy: shield.NewStrategicBuyer(95, 0.2, 1, true), Deadline: 19},
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue <= 0 {
		t.Fatal("no revenue")
	}
}

func TestWorkloadGeneration(t *testing.T) {
	r := shield.NewRNG(7)
	vals, err := shield.GenerateValuations(shield.ARConfig{
		AR: 0.1, Sigma: 0.01, Mean: 100, Floor: 1, N: 50,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := shield.TransformStrategic(vals, shield.StrategicConfig{
		PCT: 0.5, Beta: 0.25, Horizon: 4, Floor: 1,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) < len(vals) {
		t.Fatalf("stream shorter than series: %d < %d", len(stream), len(vals))
	}
	p, rev := shield.OptimalPrice(vals)
	if p <= 0 || rev <= 0 {
		t.Fatalf("OptimalPrice = %v, %v", p, rev)
	}
	if got := shield.PostedRevenue(vals, p); got != rev {
		t.Fatalf("PostedRevenue(opt) = %v, want %v", got, rev)
	}
}

func TestExPostFlow(t *testing.T) {
	a, err := shield.NewExPostArbiter(shield.ExPostConfig{
		Engine: shield.EngineConfig{
			Candidates:    shield.LinearGrid(10, 100, 10),
			EpochSize:     4,
			MinBid:        1,
			MaxWaitEpochs: 4,
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddDataset("d"); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	g, err := a.Request("b", "d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Pay(g, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Charged <= 0 || res.WaitPeriods != 0 {
		t.Fatalf("generous settle = %+v", res)
	}
}

func TestLaplacePricer(t *testing.T) {
	p, err := shield.NewLaplacePricer(shield.LaplaceConfig{
		Epsilon: 1, MinBid: 0, MaxBid: 200, EpochSize: 4, InitialPrice: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p.ObserveBid(80)
	}
	if price := p.PostingPrice(); price < 0 || price > 200 {
		t.Fatalf("DP price %v out of range", price)
	}
}

func TestPanelAndStats(t *testing.T) {
	panel := shield.NewPanel(0, 42)
	rows, err := panel.Table1(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Mean <= 0 {
		t.Fatalf("Table1 = %+v", rows)
	}
	s := shield.Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Median != 2.5 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestMoneyHelpers(t *testing.T) {
	m := shield.MoneyFromFloat(1.5)
	if m != 3*shield.Micro/2 {
		t.Fatalf("MoneyFromFloat = %v", m)
	}
	if shield.Utility(100, 60, true, 1, 5) != 40 {
		t.Fatal("Utility")
	}
}

func TestJournaledMarketFacade(t *testing.T) {
	var buf bytes.Buffer
	cfg := shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates: shield.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 5,
	}
	jm, err := shield.NewJournaledMarket(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	d, err := jm.SubmitBid("b", "d", 500)
	if err != nil || !d.Allocated {
		t.Fatalf("bid: %+v, %v", d, err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := shield.RestoreMarket(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != jm.Revenue() {
		t.Fatalf("restored revenue %v != %v", restored.Revenue(), jm.Revenue())
	}
}

func TestOpenJournaledMarketFacade(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "market.d")
	cfg := shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates: shield.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 5,
	}
	jm, replayed, err := shield.OpenJournaledMarket(cfg, dir)
	if err != nil || replayed != 0 {
		t.Fatalf("open: %v, replayed %d", err, replayed)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean close checkpoints, so the reopen replays no tail.
	jm, replayed, err = shield.OpenJournaledMarket(cfg, dir)
	if err != nil || replayed != 0 {
		t.Fatalf("reopen: %v, replayed %d", err, replayed)
	}
	defer jm.Close()
	if err := jm.RegisterSeller("s"); !errors.Is(err, shield.ErrDuplicateID) {
		t.Fatalf("seller registered before the restart is not there after it: %v", err)
	}
}

func TestMarketHandlerFacade(t *testing.T) {
	m, err := shield.NewMarket(shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates: shield.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shield.NewMarketHandler(m, nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestPatienceFacade(t *testing.T) {
	if shield.DeadlinePatience(3, 5) != 1 || shield.DeadlinePatience(6, 5) != 0 {
		t.Error("DeadlinePatience")
	}
	if shield.LinearDecayPatience(0, 9) != 1 {
		t.Error("LinearDecayPatience")
	}
	exp := shield.ExpDecayPatience(2)
	if got := exp(2, 10); got < 0.49 || got > 0.51 {
		t.Errorf("ExpDecayPatience = %v", got)
	}
	if shield.UtilityWith(shield.DeadlinePatience, 100, 60, true, 1, 5) != 40 {
		t.Error("UtilityWith")
	}
}

func TestSnapshotAndMigrateFacade(t *testing.T) {
	cfg := shield.MarketConfig{
		Engine: shield.EngineConfig{
			Candidates: shield.LinearGrid(10, 100, 10),
			EpochSize:  4,
			MinBid:     1,
		},
		Seed: 6,
	}
	m, err := shield.NewMarket(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.UploadDataset("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterBuyer("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitBid("b", "d", 500); err != nil {
		t.Fatal(err)
	}
	restored, err := shield.RestoreMarketSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Revenue() != m.Revenue() {
		t.Fatalf("snapshot revenue %v vs %v", restored.Revenue(), m.Revenue())
	}

	// A single-file journal, as older releases kept it, moves into a
	// store directory through the facade.
	flat := filepath.Join(t.TempDir(), "market.log")
	f, err := os.Create(flat)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jm, err := shield.NewJournaledMarket(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterSeller("s"); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := shield.OpenJournaledMarket(cfg, flat); err == nil || !strings.Contains(err.Error(), "journal-migrate "+flat) {
		t.Fatalf("opening the flat file as a store: %v", err)
	}
	dir, err := shield.MigrateJournal(flat)
	if err != nil || dir != flat+".d" {
		t.Fatalf("migrating: %q, %v", dir, err)
	}
	sm, replayed, err := shield.OpenJournaledMarket(cfg, dir)
	if err != nil || replayed != 2 {
		t.Fatalf("opening the migrated store: %v, replayed %d", err, replayed)
	}
	defer sm.Close()
}
