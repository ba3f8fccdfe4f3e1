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

// TestHotStormSeamCanary makes the feed lose the first record after the
// joiner's disk tail (replica.Feed.TestDropSeam) and requires the storm
// to catch it as a broken join, by name, with the hot repro line.
func TestHotStormSeamCanary(t *testing.T) {
	_, err := RunHot(HotConfig{Seed: 11, Ops: 6000, Dir: t.TempDir(), canarySeam: true})
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("a feed that loses a record at the seam passed the storm (err = %v)", err)
	}
	if !strings.Contains(f.Reason, "join-mid-storm: the joiner's catch-up broke at the disk-tail/ring seam") {
		t.Fatalf("canary tripped the wrong check: %s", f.Reason)
	}
	if !strings.Contains(f.Error(), "repro: shieldstorm -hot -seed 11 -ops 6000") {
		t.Fatalf("failure lacks the hot repro line:\n%s", f.Error())
	}
}
