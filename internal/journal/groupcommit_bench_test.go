package journal

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchSink opens a real file so the fsync in these benchmarks is an
// honest one — the fsync amortization BENCH_6.json tracks.
func benchSink(b *testing.B) *os.File {
	b.Helper()
	f, err := os.Create(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

func benchWriter(b *testing.B, opts ...Option) *Writer {
	b.Helper()
	w := NewWriter(benchSink(b), opts...)
	if err := w.Genesis(testConfig()); err != nil {
		b.Fatal(err)
	}
	return w
}

var benchBid = Event{Op: OpBid, Buyer: "b", Dataset: "d", Amount: 42}

// BenchmarkBidAppendFsyncGroupCommit appends bid records, acked after
// fsync, from concurrent appenders: the flush cost amortizes across
// every record that piles onto a group.
func BenchmarkBidAppendFsyncGroupCommit(b *testing.B) {
	w := benchWriter(b, WithFsync())
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := w.Append(benchBid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if w.groups > 0 {
		b.ReportMetric(float64(b.N)/float64(w.groups), "records/group")
	}
}

// BenchmarkBidAppendFsyncGroupCommitWindow adds the 500µs commit window
// marketd exposes as -group-commit-window, with the same parallel load.
func BenchmarkBidAppendFsyncGroupCommitWindow(b *testing.B) {
	w := benchWriter(b, WithFsync(), WithGroupCommit(500*time.Microsecond))
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := w.Append(benchBid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if w.groups > 0 {
		b.ReportMetric(float64(b.N)/float64(w.groups), "records/group")
	}
}
