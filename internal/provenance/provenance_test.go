package provenance

import (
	"errors"
	"testing"
)

func buildGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, id := range []string{"d1", "d2", "d3"} {
		if err := g.AddBase(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddDerived("d12", "d1", "d2"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDerived("d123", "d12", "d3"); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddBaseDuplicate(t *testing.T) {
	g := NewGraph()
	if err := g.AddBase("d1"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBase("d1"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate base: %v", err)
	}
}

func TestAddDerivedErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddBase("d1"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDerived("x", "missing"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown constituent: %v", err)
	}
	if err := g.AddDerived("x"); err == nil {
		t.Fatal("empty constituents accepted")
	}
	if err := g.AddDerived("x", "x"); !errors.Is(err, ErrCycle) {
		t.Fatalf("self reference: %v", err)
	}
	if err := g.AddDerived("d2", "d1"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDerived("d2", "d1"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate derived: %v", err)
	}
}

func TestContainsAndIsBase(t *testing.T) {
	g := buildGraph(t)
	if !g.Contains("d1") || g.Contains("nope") {
		t.Error("Contains broken")
	}
	if !g.IsBase("d1") || g.IsBase("d12") || g.IsBase("nope") {
		t.Error("IsBase broken")
	}
	if g.Len() != 5 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestLeaves(t *testing.T) {
	g := buildGraph(t)
	cases := map[string][]string{
		"d1":   {"d1"},
		"d12":  {"d1", "d2"},
		"d123": {"d1", "d2", "d3"},
	}
	for id, want := range cases {
		got, err := g.Leaves(id)
		if err != nil {
			t.Fatalf("Leaves(%s): %v", id, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Leaves(%s) = %v", id, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Leaves(%s) = %v, want %v", id, got, want)
			}
		}
	}
	if _, err := g.Leaves("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown leaves: %v", err)
	}
}

func TestLeavesDeduplicatesSharedConstituents(t *testing.T) {
	g := NewGraph()
	for _, id := range []string{"a", "b"} {
		if err := g.AddBase(id); err != nil {
			t.Fatal(err)
		}
	}
	// Diamond: two derived datasets both built on a, combined again.
	if err := g.AddDerived("ab", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDerived("aa", "a", "ab"); err != nil {
		t.Fatal(err)
	}
	leaves, err := g.Leaves("aa")
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 2 || leaves[0] != "a" || leaves[1] != "b" {
		t.Fatalf("diamond leaves = %v", leaves)
	}
}

func TestDependents(t *testing.T) {
	g := buildGraph(t)
	deps, err := g.Dependents("d1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"d1", "d12", "d123"}
	if len(deps) != len(want) {
		t.Fatalf("Dependents(d1) = %v", deps)
	}
	for i := range want {
		if deps[i] != want[i] {
			t.Fatalf("Dependents(d1) = %v, want %v", deps, want)
		}
	}
	deps3, err := g.Dependents("d3")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps3) != 2 || deps3[0] != "d123" || deps3[1] != "d3" {
		t.Fatalf("Dependents(d3) = %v", deps3)
	}
	if _, err := g.Dependents("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown dependents: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := buildGraph(t)
	snap := g.Snapshot()
	// Mutating the snapshot must not affect the graph.
	snap["d12"][0] = "hacked"
	if g.Snapshot()["d12"][0] != "d1" {
		t.Fatal("Snapshot leaked internal state")
	}

	g2, err := FromSnapshot(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("len %d vs %d", g2.Len(), g.Len())
	}
	l1, _ := g.Leaves("d123")
	l2, err := g2.Leaves("d123")
	if err != nil || len(l1) != len(l2) {
		t.Fatalf("leaves differ: %v vs %v (%v)", l1, l2, err)
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	// Unknown constituent.
	if _, err := FromSnapshot(map[string][]string{"a": {"missing"}}); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown constituent: %v", err)
	}
	// Cycle.
	if _, err := FromSnapshot(map[string][]string{
		"a": {"b"}, "b": {"a"},
	}); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle: %v", err)
	}
	// Self-cycle.
	if _, err := FromSnapshot(map[string][]string{"a": {"a"}}); !errors.Is(err, ErrCycle) {
		t.Errorf("self cycle: %v", err)
	}
	// Valid diamond.
	g, err := FromSnapshot(map[string][]string{
		"a": nil, "b": nil, "ab": {"a", "b"}, "aab": {"a", "ab"},
	})
	if err != nil || g.Len() != 4 {
		t.Fatalf("diamond rejected: %v", err)
	}
}

func TestRemove(t *testing.T) {
	g := buildGraph(t)
	// d1 backs d12: refuse.
	if err := g.Remove("d1"); err == nil {
		t.Fatal("removed a constituent in use")
	}
	// Top-level derived removes fine, then its constituent frees up.
	if err := g.Remove("d123"); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("d12"); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove("d1"); err != nil {
		t.Fatal(err)
	}
	if g.Contains("d1") || g.Len() != 2 {
		t.Fatalf("graph after removals: len %d", g.Len())
	}
	if err := g.Remove("missing"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("remove unknown: %v", err)
	}
}
