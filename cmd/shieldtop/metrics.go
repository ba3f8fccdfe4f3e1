package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/datamarket/shield/internal/obs"
)

// bucket is one cumulative histogram bucket.
type bucket struct {
	le       float64
	cum      float64
	exemplar string
}

// hist is one reassembled histogram series (family + label set minus
// le), with buckets in ascending le order.
type hist struct {
	labels  map[string]string
	buckets []bucket
	sum     float64
	count   float64
}

// snapshot is one /metrics scrape, indexed for the dashboard: scalar
// series (counters, gauges) by rendered series name, histograms by
// family name then label key.
type snapshot struct {
	at      time.Time
	scalars map[string]float64
	hists   map[string]map[string]*hist
}

// scalar returns a counter/gauge value by its rendered series name,
// e.g. "shield_runtime_goroutines" or a labeled form.
func (s *snapshot) scalar(name string) (float64, bool) {
	v, ok := s.scalars[name]
	return v, ok
}

// histograms returns the family's series sorted by label key, so render
// order is stable across refreshes.
func (s *snapshot) histograms(family string) []*hist {
	m := s.hists[family]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*hist, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// quantile estimates the p-quantile in the histogram's native unit by
// linear interpolation inside the first bucket whose cumulative count
// reaches rank p*count. The +Inf bucket clamps to the last finite edge.
func (h *hist) quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := p * h.count
	lower, prevCum := 0.0, 0.0
	for _, b := range h.buckets {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return lower
			}
			inBucket := b.cum - prevCum
			if inBucket <= 0 {
				return b.le
			}
			return lower + (b.le-lower)*(target-prevCum)/inBucket
		}
		if !math.IsInf(b.le, 1) {
			lower = b.le
		}
		prevCum = b.cum
	}
	return lower
}

// tailExemplar returns the trace ID on the highest-le bucket that
// carries one — the request that explains the distribution's tail.
func (h *hist) tailExemplar() string {
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i].exemplar != "" {
			return h.buckets[i].exemplar
		}
	}
	return ""
}

// merge folds other into h: bucket-by-bucket cumulative counts (both
// sides share the registry's fixed bucket layout), sums and counts.
// Used to collapse per-status series into one per-op-class histogram.
func (h *hist) merge(other *hist) {
	h.sum += other.sum
	h.count += other.count
	if len(h.buckets) == 0 {
		h.buckets = append([]bucket(nil), other.buckets...)
		return
	}
	for i := range h.buckets {
		if i < len(other.buckets) {
			h.buckets[i].cum += other.buckets[i].cum
			if other.buckets[i].exemplar != "" {
				h.buckets[i].exemplar = other.buckets[i].exemplar
			}
		}
	}
}

// parseExposition parses the dialect internal/obs emits — Prometheus
// text format plus "# {trace_id=\"...\"} value ts" bucket exemplars —
// into an indexed snapshot, each sample read by obs.ParseSample, the
// linter's own parser. Unparseable lines are skipped: a live dashboard
// degrades, it does not crash.
func parseExposition(text string, at time.Time) *snapshot {
	snap := &snapshot{at: at, scalars: map[string]float64{}, hists: map[string]map[string]*hist{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, pairs, value, ex, err := obs.ParseSample(line)
		if err != nil {
			continue
		}
		labels := make(map[string]string, len(pairs))
		for _, kv := range pairs {
			labels[kv[0]] = kv[1]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, err := parseLe(labels["le"])
			if err != nil {
				continue
			}
			delete(labels, "le")
			b := bucket{le: le, cum: value}
			if ex != nil {
				b.exemplar = ex.TraceID
			}
			h := snap.histSeries(strings.TrimSuffix(name, "_bucket"), labels)
			h.buckets = append(h.buckets, b)
		case strings.HasSuffix(name, "_sum"):
			snap.histSeries(strings.TrimSuffix(name, "_sum"), labels).sum = value
		case strings.HasSuffix(name, "_count"):
			snap.histSeries(strings.TrimSuffix(name, "_count"), labels).count = value
		default:
			snap.scalars[seriesName(name, labels)] = value
		}
	}
	for _, m := range snap.hists {
		for _, h := range m {
			sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
		}
	}
	return snap
}

// histSeries finds or creates the histogram for (family, labels).
func (s *snapshot) histSeries(family string, labels map[string]string) *hist {
	m := s.hists[family]
	if m == nil {
		m = map[string]*hist{}
		s.hists[family] = m
	}
	key := labelKey(labels)
	h := m[key]
	if h == nil {
		h = &hist{labels: labels}
		m[key] = h
	}
	return h
}

func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte('\xff')
	}
	return b.String()
}

func seriesName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
