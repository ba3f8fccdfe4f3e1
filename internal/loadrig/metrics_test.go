package loadrig

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRigServesTheDaemonsFamilies: the rig's leader and follower
// /metrics carry the two families marketd adds around its HTTP server —
// the open-connection gauge shieldtop reads and the runtime
// self-metrics — so metricslint, which lints the rig's expositions,
// lints what the daemon serves. The scrape itself is an open
// connection, so the gauge reads at least one.
func TestRigServesTheDaemonsFamilies(t *testing.T) {
	rig := startTestRig(t, RigConfig{Datasets: 2, Buyers: 2, Followers: 1})
	for _, addr := range []string{rig.HTTPAddr, rig.FollowerAddrs[0]} {
		resp, err := http.Get(addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"# TYPE shield_http_connections gauge", "# TYPE shield_runtime_goroutines gauge"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s/metrics has no %q", addr, want)
			}
		}
		if strings.Contains(string(body), "\nshield_http_connections 0\n") {
			t.Errorf("%s/metrics counts no open connection during its own scrape", addr)
		}
	}
}
