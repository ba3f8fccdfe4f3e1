// Package provenance tracks how combined datasets are derived from base
// datasets (Figure 1, step 3): the arbiter combines seller-uploaded
// datasets into derived products, and a bid on a derived dataset d'
// propagates to the datasets used to produce it (footnote 2 of the paper
// notes this is a provenance problem — this package is that substrate).
//
// The graph is a DAG: a derived dataset lists its direct constituents, and
// Leaves resolves any dataset to the base datasets that ultimately back
// it, which is what the market uses to split sale revenue among sellers.
package provenance

import (
	"errors"
	"fmt"
	"sort"
)

// ErrCycle reports that adding an edge set would create a cycle.
var ErrCycle = errors.New("provenance: composition would create a cycle")

// ErrUnknown reports a reference to an unregistered dataset.
var ErrUnknown = errors.New("provenance: unknown dataset")

// ErrExists reports a duplicate registration.
var ErrExists = errors.New("provenance: dataset already registered")

// Graph records dataset derivations. The zero value is not usable; call
// NewGraph. Graph is not safe for concurrent use (the market arbiter
// serializes access).
type Graph struct {
	parents map[string][]string // dataset -> direct constituents (empty: base)
}

// NewGraph returns an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{parents: make(map[string][]string)}
}

// AddBase registers a base (seller-uploaded) dataset.
func (g *Graph) AddBase(id string) error {
	if _, ok := g.parents[id]; ok {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	g.parents[id] = nil
	return nil
}

// AddDerived registers a derived dataset composed from the given
// constituents, all of which must already exist. Self-references and
// cycles are rejected.
func (g *Graph) AddDerived(id string, constituents ...string) error {
	if _, ok := g.parents[id]; ok {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	if len(constituents) == 0 {
		return errors.New("provenance: derived dataset needs constituents")
	}
	for _, c := range constituents {
		if c == id {
			return fmt.Errorf("%w: %s references itself", ErrCycle, id)
		}
		if _, ok := g.parents[c]; !ok {
			return fmt.Errorf("%w: constituent %s", ErrUnknown, c)
		}
	}
	// Since id is new and all constituents already exist, no constituent
	// can reach id, so no cycle is possible; the checks above are the
	// whole safety argument.
	cp := make([]string, len(constituents))
	copy(cp, constituents)
	g.parents[id] = cp
	return nil
}

// Contains reports whether id is registered.
func (g *Graph) Contains(id string) bool {
	_, ok := g.parents[id]
	return ok
}

// IsBase reports whether id is a base dataset. Unknown ids are not base.
func (g *Graph) IsBase(id string) bool {
	p, ok := g.parents[id]
	return ok && len(p) == 0
}

// Leaves resolves id to the distinct base datasets backing it, sorted for
// determinism. A base dataset resolves to itself.
func (g *Graph) Leaves(id string) ([]string, error) {
	if _, ok := g.parents[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	seen := make(map[string]bool)
	var leaves []string
	var walk func(string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		ps := g.parents[n]
		if len(ps) == 0 {
			leaves = append(leaves, n)
			return
		}
		for _, p := range ps {
			walk(p)
		}
	}
	walk(id)
	sort.Strings(leaves)
	return leaves, nil
}

// Shares returns each base dataset's revenue share of a sale of id: an
// equal split across the distinct base datasets backing it. (The paper
// delegates finer-grained revenue allocation, e.g. Shapley-value splits,
// to the related work it cites; an equal split keeps the ledger exact.)
func (g *Graph) Shares(id string) (map[string]float64, error) {
	leaves, err := g.Leaves(id)
	if err != nil {
		return nil, err
	}
	share := 1 / float64(len(leaves))
	out := make(map[string]float64, len(leaves))
	for _, l := range leaves {
		out[l] = share
	}
	return out, nil
}

// Dependents returns every registered dataset whose leaf set includes
// base (including base itself if registered as base), sorted. It answers
// "which products does this seller's dataset participate in?".
func (g *Graph) Dependents(base string) ([]string, error) {
	if _, ok := g.parents[base]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, base)
	}
	var out []string
	for id := range g.parents {
		leaves, err := g.Leaves(id)
		if err != nil {
			return nil, err
		}
		for _, l := range leaves {
			if l == base {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Len returns the number of registered datasets.
func (g *Graph) Len() int { return len(g.parents) }

// Remove deletes a dataset from the graph. It refuses to remove a
// dataset that other datasets still build on (the dependents must be
// removed first).
func (g *Graph) Remove(id string) error {
	if _, ok := g.parents[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, id)
	}
	for other, ps := range g.parents {
		for _, p := range ps {
			if p == id {
				return fmt.Errorf("provenance: %s is a constituent of %s", id, other)
			}
		}
	}
	delete(g.parents, id)
	return nil
}

// Snapshot returns a deep copy of the derivation map (dataset -> direct
// constituents; empty for base datasets) for serialization.
func (g *Graph) Snapshot() map[string][]string {
	out := make(map[string][]string, len(g.parents))
	for id, ps := range g.parents {
		cp := make([]string, len(ps))
		copy(cp, ps)
		out[id] = cp
	}
	return out
}

// FromSnapshot reconstructs a graph from a derivation map, validating
// that every constituent exists and that the graph is acyclic.
func FromSnapshot(parents map[string][]string) (*Graph, error) {
	g := NewGraph()
	for id, ps := range parents {
		cp := make([]string, len(ps))
		copy(cp, ps)
		g.parents[id] = cp
	}
	// Validate references and acyclicity with an iterative three-color
	// DFS over every node.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(g.parents))
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("%w: via %s", ErrCycle, n)
		case black:
			return nil
		}
		color[n] = gray
		for _, p := range g.parents[n] {
			if _, ok := g.parents[p]; !ok {
				return fmt.Errorf("%w: constituent %s of %s", ErrUnknown, p, n)
			}
			if err := visit(p); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for id := range g.parents {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	return g, nil
}
