package market

import (
	"sort"

	"github.com/datamarket/shield/internal/obs"
)

// telemetry holds the market's pre-bound hot-path instruments. All
// fields are bound once in Instrument, before the market serves
// traffic, so the bid path reads them without synchronization; a nil
// telemetry (the default) costs one pointer check per site.
type telemetry struct {
	// scrapeErrors counts metric families whose collector failed
	// mid-scrape instead of silently dropping their samples.
	scrapeErrors *obs.Counter
	// applyStage and publishStage are the market's stages on the shared
	// shield_stage_seconds family: applying one bid to the engine state
	// (allocation, wait simulation, demand propagation, epoch price
	// update, books) and publishing the invalidated read views.
	applyStage   *obs.Histogram
	publishStage *obs.Histogram
}

// Instrument registers the market's metric families on t and binds the
// hot-path instruments. Call once, before the market serves traffic
// (registering the same family twice panics by design).
//
// Scrape-time families read market state through StatsAll, which reads
// the lock-free copy-on-write views in one consistent pass — a dataset
// withdrawn mid-scrape is either fully present or fully absent, never
// half-reported, and a scrape never blocks a bid.
func (m *Market) Instrument(t *obs.Telemetry) {
	r := t.Registry

	tel := &telemetry{
		scrapeErrors: r.Counter("shield_metrics_scrape_errors_total",
			"Metric families whose collector failed during a scrape (samples would otherwise be silently dropped)."),
		applyStage:   t.Stage("apply"),
		publishStage: t.Stage("publish"),
	}
	r.OnCollectError(func(string) { tel.scrapeErrors.Inc() })

	// Market-level books.
	r.Collect("shield_market_revenue_units", "Total revenue raised across all datasets.",
		obs.KindCounter, func(emit func(float64, ...string)) {
			emit(m.Revenue().Float())
		})
	r.Collect("shield_market_transactions_total", "Completed sales.",
		obs.KindCounter, func(emit func(float64, ...string)) {
			emit(float64(m.TxCount()))
		})
	r.Collect("shield_market_period", "Current market period.",
		obs.KindGauge, func(emit func(float64, ...string)) {
			emit(float64(m.Period()))
		})

	// Per-dataset engine diagnostics. Each family scans one consistent
	// StatsAll snapshot; the posting price stays operator-only (the
	// registry is served behind the operator gate).
	perDataset := func(name, help string, kind obs.Kind, value func(DatasetStats) float64) {
		r.Collect(name, help, kind, func(emit func(float64, ...string)) {
			for _, d := range m.StatsAll() {
				emit(value(d), "dataset", string(d.Dataset))
			}
		})
	}
	perDataset("shield_dataset_bids_total", "Bids evaluated per dataset.",
		obs.KindCounter, func(d DatasetStats) float64 { return float64(d.Bids) })
	perDataset("shield_dataset_allocations_total", "Winning bids per dataset.",
		obs.KindCounter, func(d DatasetStats) float64 { return float64(d.Allocations) })
	perDataset("shield_dataset_epochs_total", "Completed pricing epochs per dataset.",
		obs.KindCounter, func(d DatasetStats) float64 { return float64(d.Epochs) })
	perDataset("shield_dataset_revenue_units", "Revenue per dataset.",
		obs.KindCounter, func(d DatasetStats) float64 { return d.Revenue })
	perDataset("shield_dataset_posting_price", "Current posting price per dataset (operator only).",
		obs.KindGauge, func(d DatasetStats) float64 { return d.PostingPrice })

	m.tel = tel
}

// StatsAll returns the diagnostic snapshot of every dataset, sorted by
// ID, lock-free: one atomic load of the copy-on-write stats view fixes
// the dataset population (a concurrent withdraw or upload is either
// fully reflected or not at all), and each dataset's value is the cell
// published by the last bid that touched its engine.
func (m *Market) StatsAll() []DatasetStats {
	stats := *m.vw.stats.Load()
	out := make([]DatasetStats, 0, len(stats))
	for _, cell := range stats {
		out = append(out, cell.load())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}
