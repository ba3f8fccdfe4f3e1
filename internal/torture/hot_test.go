package torture

import (
	"errors"
	"strings"
	"testing"
)

// TestHotStorm is the concurrent differential: goroutines pile onto one
// dataset of a store-backed journaled market and, at every quiescent
// checkpoint, journal replay, store recovery and the follower twin must
// each rebuild the leader byte for byte. Run it under -race.
func TestHotStorm(t *testing.T) {
	ops := 6000
	if testing.Short() {
		ops = 2000
	}
	rep, err := RunHot(HotConfig{Seed: 11, Ops: ops, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoints < 2 || rep.Allocations == 0 || rep.Rejections == 0 {
		t.Fatalf("storm too tame to mean anything: %+v", rep)
	}
}

// TestHotStormUnorderedCanary reintroduces the window the commit stage
// closed — a command applied and published, then a yield, then its
// record queued for a sequence number — and requires the storm to catch
// it as a journal-replay divergence, by name, with the hot repro line.
func TestHotStormUnorderedCanary(t *testing.T) {
	_, err := RunHot(HotConfig{Seed: 11, Ops: 6000, Dir: t.TempDir(), canaryUnordered: true})
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("an out-of-order journal passed the storm (err = %v)", err)
	}
	if !strings.Contains(f.Reason, "journal replay does not rebuild the leader") {
		t.Fatalf("canary tripped the wrong check: %s", f.Reason)
	}
	if !strings.Contains(f.Error(), "repro: shieldstorm -hot -seed 11 -ops 6000") {
		t.Fatalf("failure lacks the hot repro line:\n%s", f.Error())
	}
}
