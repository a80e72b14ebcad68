// Package worlds loads the world corpus: fixed consensus executions
// checked in under testdata/worlds, one JSON file per world, that every
// parity judge of the repository runs (DESIGN.md §6). A world file uses
// the daemon's request field names (graph, f, t, algorithm, inputs or
// input_pattern, faults, rounds, full_budget) plus two the wire cannot
// carry yet: model and equivocators. The package also holds the golden
// files' type and their trace encoding, so every judge reads
// trace_sha256 and the decisions from the same files.
//
// It imports neither eval nor server, so the tests of the root package,
// of eval and of server can all import it.
package worlds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lbcast/internal/adversary"
	"lbcast/internal/core"
	"lbcast/internal/graph"
	"lbcast/internal/graph/gen"
	"lbcast/internal/sim"
)

// Fault plants one named strategy (adversary.New) on a vertex.
type Fault struct {
	Node     int    `json:"node"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed,omitempty"`
}

// World is one corpus file.
type World struct {
	// Name is the file name without its .json suffix.
	Name         string  `json:"-"`
	Graph        string  `json:"graph"`
	F            int     `json:"f"`
	T            int     `json:"t,omitempty"`
	Algorithm    int     `json:"algorithm,omitempty"`
	Inputs       []int   `json:"inputs,omitempty"`
	InputPattern []int   `json:"input_pattern,omitempty"`
	Faults       []Fault `json:"faults,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	FullBudget   bool    `json:"full_budget,omitempty"`
	// Model names the transport as sim.Model.String does; empty is the
	// default, local broadcast.
	Model        string `json:"model,omitempty"`
	Equivocators []int  `json:"equivocators,omitempty"`
}

// Load decodes every world in dir, in file-name order. Unknown fields are
// errors, and so is any world whose graph, inputs, faults or model do not
// build.
func Load(dir string) ([]World, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("worlds: no world files in %s", dir)
	}
	out := make([]World, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var w World
		if err := dec.Decode(&w); err != nil {
			return nil, fmt.Errorf("worlds: %s: %w", f, err)
		}
		w.Name = strings.TrimSuffix(filepath.Base(f), ".json")
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("worlds: %s: %w", f, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// validate builds the world once, so the builders below cannot fail on a
// loaded world.
func (w *World) validate() error {
	g, err := gen.ParseSpec(w.Graph)
	if err != nil {
		return err
	}
	n := g.N()
	switch {
	case len(w.Inputs) > 0 && len(w.InputPattern) > 0:
		return fmt.Errorf("inputs and input_pattern are mutually exclusive")
	case len(w.Inputs) > 0 && len(w.Inputs) != n:
		return fmt.Errorf("inputs has %d entries, graph has %d nodes", len(w.Inputs), n)
	case len(w.Inputs) == 0 && len(w.InputPattern) == 0:
		return fmt.Errorf("inputs or input_pattern is required")
	}
	for _, vs := range [][]int{w.Inputs, w.InputPattern} {
		for _, v := range vs {
			if v != 0 && v != 1 {
				return fmt.Errorf("input %d is not binary", v)
			}
		}
	}
	seen := graph.NewSet()
	for _, f := range w.Faults {
		if f.Node < 0 || f.Node >= n || seen.Contains(graph.NodeID(f.Node)) {
			return fmt.Errorf("fault node %d out of range or repeated", f.Node)
		}
		seen.Add(graph.NodeID(f.Node))
		if _, err := adversary.New(f.Strategy, g, graph.NodeID(f.Node), 1, f.Seed); err != nil {
			return err
		}
	}
	for _, u := range w.Equivocators {
		if u < 0 || u >= n {
			return fmt.Errorf("equivocator %d out of range", u)
		}
	}
	if _, ok := models[w.Model]; !ok {
		return fmt.Errorf("unknown model %q", w.Model)
	}
	return nil
}

var models = map[string]sim.Model{
	"":                          0,
	sim.LocalBroadcast.String(): sim.LocalBroadcast,
	sim.PointToPoint.String():   sim.PointToPoint,
	sim.Hybrid.String():         sim.Hybrid,
}

// NewGraph builds the world's graph.
func (w *World) NewGraph() *graph.Graph {
	g, err := gen.ParseSpec(w.Graph)
	if err != nil {
		panic(err) // Load parsed it
	}
	return g
}

// Slab returns the input vector of an n-node graph: Inputs, or
// InputPattern repeated.
func (w *World) Slab(n int) []sim.Value {
	pattern := w.Inputs
	if len(pattern) == 0 {
		pattern = w.InputPattern
	}
	slab := make([]sim.Value, n)
	for u := range slab {
		slab[u] = sim.Value(pattern[u%len(pattern)])
	}
	return slab
}

// NewByzantine builds fresh adversaries on g, one per fault, so stateful
// strategies restart their streams on every call. It returns nil for a
// fault-free world.
func (w *World) NewByzantine(g *graph.Graph) map[graph.NodeID]sim.Node {
	if len(w.Faults) == 0 {
		return nil
	}
	byz := make(map[graph.NodeID]sim.Node, len(w.Faults))
	phaseLen := core.PhaseRounds(g.N())
	for _, f := range w.Faults {
		nd, err := adversary.New(f.Strategy, g, graph.NodeID(f.Node), phaseLen, f.Seed)
		if err != nil {
			panic(err) // Load built it
		}
		byz[graph.NodeID(f.Node)] = nd
	}
	return byz
}

// SimModel is the world's transport; 0 leaves the default.
func (w *World) SimModel() sim.Model { return models[w.Model] }

// EquivocatorSet is the set of nodes allowed to equivocate under the
// hybrid model.
func (w *World) EquivocatorSet() graph.Set {
	s := graph.NewSet()
	for _, u := range w.Equivocators {
		s.Add(graph.NodeID(u))
	}
	return s
}
