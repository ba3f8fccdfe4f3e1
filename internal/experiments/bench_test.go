package experiments

import "testing"

// BenchmarkPaperRound is one round of the repository benchmark's paper_sim
// workload: Figures 3b, 4b and 5a at the paper's 100 series. It is the
// one-command profile of the simulated figures:
//
//	go test -run xxx -bench PaperRound -cpuprofile cpu.out ./internal/experiments/
//	go tool pprof -top cpu.out
func BenchmarkPaperRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fig := range []func(Options) (BoxSeries, error){Fig3b, Fig4b, Fig5a} {
			if _, err := fig(Options{Series: 100}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
