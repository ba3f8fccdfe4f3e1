// Command metricslint is the CI gate for the /metrics contract: it
// boots the full instrumented stack in-process (journaled market, HTTP
// and wire transports, one read replica, tracing at sampling 1, runtime
// self-metrics), drives real traffic through both transports so every
// histogram family carries observations and bucket exemplars, sends a
// few reads to the replica, scrapes GET /metrics from the leader and
// from the replica over HTTP, and lints both expositions with
// obs.LintExposition:
//
//   - every family matches the shield_[a-z0-9_]+ naming convention,
//   - the text is format-conformant (HELP/TYPE blocks, contiguous
//     families, no duplicate series, monotone cumulative buckets,
//     +Inf == _count),
//   - exemplars appear only on _bucket lines, parse, and fit inside
//     their bucket.
//
// A clean exposition exits 0; any problem prints one line per finding
// and exits 1, failing `make ci`. This is the check that keeps a
// renamed or malformed metric from silently breaking dashboards and
// the scrape pipeline.
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"github.com/datamarket/shield/internal/loadrig"
	"github.com/datamarket/shield/internal/obs"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

// run is main minus the process exit: 0 = clean exposition, 1 = lint
// problems, 2 = setup failure.
func run(stdout, stderr io.Writer) int {
	rig, err := loadrig.StartRig(loadrig.RigConfig{
		Datasets:    4,
		Buyers:      16,
		Fsync:       true,
		TraceSample: 1,
		Followers:   1,
	})
	if err != nil {
		fmt.Fprintf(stderr, "metricslint: %v\n", err)
		return 2
	}
	defer rig.Close()

	// Real traffic over both transports populates every request and
	// stage histogram — with sampling 1, each gets bucket exemplars,
	// which is the part of the dialect most worth linting.
	if _, err := loadrig.Run(rig, loadrig.Scenario{
		Transport: loadrig.TransportBoth,
		Clients:   8,
		Rate:      4000,
		Ops:       400,
		TickEvery: 100,
		Seed:      2022,
	}); err != nil {
		fmt.Fprintf(stderr, "metricslint: driving traffic: %v\n", err)
		return 2
	}

	// A follower serves its own /metrics — the shield_replica_* gauges
	// and its HTTP histograms, which two reads populate — so after them
	// both the leader's and the follower's expositions are scraped.
	f := rig.FollowerAddrs[0]
	var bodies []string
	for _, url := range []string{f + "/v1/period", f + "/v1/datasets", rig.HTTPAddr + "/metrics", f + "/metrics"} {
		body, err := get(url)
		if err != nil {
			fmt.Fprintf(stderr, "metricslint: GET %s: %v\n", url, err)
			return 2
		}
		bodies = append(bodies, body)
	}
	exposition, follower := bodies[2], bodies[3]

	problems := obs.LintExposition(exposition)
	for _, p := range obs.LintExposition(follower) {
		problems = append(problems, "follower: "+p)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "metricslint: %s\n", p)
		}
		fmt.Fprintf(stderr, "metricslint: %d problems\n", len(problems))
		return 1
	}
	fmt.Fprintf(stdout, "metricslint: OK — %d families, %d exemplars, %d bytes; follower %d families\n",
		strings.Count(exposition, "# TYPE "),
		strings.Count(exposition, "# {trace_id="),
		len(exposition),
		strings.Count(follower, "# TYPE "))
	return 0
}

// get fetches url's body.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}
