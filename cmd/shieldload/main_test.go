package main

import (
	"bytes"
	"strings"
	"testing"
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

// TestRunMutationCanary proves the gate can fail: injecting an
// artificial latency regression into the bid class must exit nonzero
// and name the violated clause on stderr.
func TestRunMutationCanary(t *testing.T) {
	var out, errOut bytes.Buffer
	args := append([]string{
		"-slo", "bid.p99<250ms,query.p99<10s",
		"-inject", "bid=2.5s",
	}, small...)
	code := run(args, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d with injected regression, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "bid.p99<250ms violated") {
		t.Errorf("stderr does not name the violated clause:\n%s", errOut.String())
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
		{"-inject", "bid=oops"},
		{"-transport", "carrier-pigeon", "-clients", "4", "-ops", "10"},
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
}
