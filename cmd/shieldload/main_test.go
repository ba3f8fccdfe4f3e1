package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/datamarket/shield/internal/auction"
	"github.com/datamarket/shield/internal/core"
	"github.com/datamarket/shield/internal/market"
	"github.com/datamarket/shield/internal/node"
)

// small keeps test runs quick while still driving both transports
// concurrently through the full rig.
var small = []string{
	"-clients", "48", "-rate", "3000", "-ops", "1500", "-tick-every", "300",
}

func TestRunGatePasses(t *testing.T) {
	var out, errOut bytes.Buffer
	args := append([]string{"-slo", "bid.p99<10s,query.p99<10s,error_rate<0.1%"}, small...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "SLO satisfied") {
		t.Errorf("stdout missing SLO confirmation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "money conserved") {
		t.Errorf("stdout missing invariant summary:\n%s", out.String())
	}
}

// TestRunMutationCanary proves the gate can fail: a bid bound below any
// real round trip must exit nonzero and name the violated clause, with
// its measured value, on stderr.
func TestRunMutationCanary(t *testing.T) {
	var out, errOut bytes.Buffer
	args := append([]string{
		"-slo", "bid.p99<1ns,query.p99<10s",
	}, small...)
	code := run(args, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d with a 1ns bid bound, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "bid.p99<1ns violated: measured") {
		t.Errorf("stderr does not name the violated clause with a measured value:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "query.p99") {
		t.Errorf("untouched class reported as violated:\n%s", errOut.String())
	}
}

// TestRunStoreGate drives the -compact-every scenario: the rig's
// store, checkpointing and compacting under load, must hold the bid.p99
// SLO and pass the store-recovery invariant.
func TestRunStoreGate(t *testing.T) {
	var out, errOut bytes.Buffer
	args := append([]string{
		"-compact-every", "300", "-segment-records", "128",
		"-slo", "bid.p99<10s,error_rate<0.1%",
	}, small...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "checkpointed recovery rebuilds live state") {
		t.Errorf("stdout missing store recovery invariant:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SLO satisfied") {
		t.Errorf("stdout missing SLO confirmation:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-slo", "bid.p42<5ms"},
		{"-transport", "carrier-pigeon", "-clients", "4", "-ops", "10"},
		{"-addr", "127.0.0.1:1", "-transport", "http", "-followers", "1"},
		{"-addr", "127.0.0.1:1", "-transport", "wire"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) exit %d, want 2\nstderr:\n%s", args, code, errOut.String())
		}
	}
}

func TestRunWritesArtifact(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	var out, errOut bytes.Buffer
	args := append([]string{"-json", path, "-q"}, small...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("stdout missing artifact confirmation:\n%s", out.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(buf, &art); err != nil {
		t.Fatal(err)
	}
	if art.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", art.GoVersion, runtime.Version())
	}
}

// TestRunDrivesARunningServer: -addr and -wire-addr drive a marketd node
// started outside the rig over each transport, with ticks, and a rerun
// against the same server keeps the accounts the first run registered.
func TestRunDrivesARunningServer(t *testing.T) {
	n, err := node.Start(node.Config{
		Market: market.Config{
			Engine: core.Config{Candidates: auction.LinearGrid(1, 200, 40), EpochSize: 8, BidsPerPeriod: 1, MinBid: 1},
			Seed:   9,
		},
		Addr:     "127.0.0.1:0",
		WireAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	target := []string{"-addr", n.HTTPAddr, "-wire-addr", "wire://" + n.WireAddr, "-slo", "error_rate<0.1%"}
	for _, transport := range []string{"http", "wire", "both", "both"} {
		var out, errOut bytes.Buffer
		args := append(append([]string{"-transport", transport}, target...), small...)
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("-transport %s: exit %d\nstdout:\n%s\nstderr:\n%s", transport, code, out.String(), errOut.String())
		}
		for _, want := range []string{"tick ", "invariants: not checked", "SLO satisfied"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-transport %s: stdout has no %q:\n%s", transport, want, out.String())
			}
		}
	}
}
