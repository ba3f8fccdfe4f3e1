package torture

import (
	"errors"
	"strings"
	"testing"
)

// TestBitrot: seeded single-bit flips across segments (frames and
// segheads) and checkpoints; every reader refuses the store by name or
// rebuilds the builder's market, never a different one.
func TestBitrot(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rep, err := RunBitrot(BitrotConfig{Seed: seed, Ops: 400, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checkpoints != bitrotFlips || rep.StoreSegments < 3 || rep.StoreCheckpoints < 2 {
			t.Fatalf("seed %d: run too tame to mean anything: %+v", seed, rep)
		}
	}
}

// TestBitrotSkipChecksumCanary: with checksum verification skipped the
// mode must fail, by name, with the bit-rot repro line — the flips it
// makes are ones only a checksum notices.
func TestBitrotSkipChecksumCanary(t *testing.T) {
	_, err := RunBitrot(BitrotConfig{Seed: 3, Ops: 400, Dir: t.TempDir(), canarySkipChecksum: true})
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("bit rot passed every reader with checksums off (err = %v)", err)
	}
	if !strings.Contains(f.Reason, "bit rot not detected") && !strings.Contains(f.Reason, "returned a different market") {
		t.Fatalf("canary tripped the wrong check: %s", f.Reason)
	}
	if !strings.Contains(f.Error(), "repro: shieldstorm -bitrot -seed 3 -ops 400") {
		t.Fatalf("failure lacks the bit-rot repro line:\n%s", f.Error())
	}
}
