package gen

import (
	"fmt"
	"strconv"
	"strings"

	"lbcast/internal/graph"
)

// ParseSpec builds a graph from a compact textual description, used by the
// command-line tools:
//
//	cycle:N             the N-cycle
//	complete:N          K_N
//	circulant:N:d1,d2   C_N(d1,d2,...)
//	harary:K:N          Harary graph H_{K,N}
//	wheel:N             wheel on N nodes
//	hypercube:D         Q_D
//	bipartite:A:B       K_{A,B}
//	random:N:P:SEED     seeded connected random graph (P in percent)
//	figure1a            the paper's Figure 1(a)
//	figure1b            the Figure 1(b) stand-in C_8(1,2)
//	petersen            the Petersen graph (3-regular, 3-connected)
//	edges:N:u-v,u-v,... explicit edge list
//
// Graphs of more than graph.MaxNodes nodes are rejected; a node-count
// argument beyond it is rejected before anything is built.
func ParseSpec(spec string) (*graph.Graph, error) {
	g, err := parseSpec(spec)
	if err == nil && g.N() > graph.MaxNodes {
		return nil, fmt.Errorf("gen: spec %q has %d nodes, more than the %d supported", spec, g.N(), graph.MaxNodes)
	}
	return g, err
}

func parseSpec(spec string) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	kind := parts[0]
	argInt := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("gen: spec %q: missing argument %d", spec, i)
		}
		v, err := strconv.Atoi(parts[i])
		if err != nil {
			return 0, fmt.Errorf("gen: spec %q: argument %d: %w", spec, i, err)
		}
		return v, nil
	}
	argN := func(i int) (int, error) {
		v, err := argInt(i)
		if err == nil && v > graph.MaxNodes {
			err = fmt.Errorf("gen: spec %q: %d nodes, more than the %d supported", spec, v, graph.MaxNodes)
		}
		return v, err
	}
	switch kind {
	case "cycle":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		return Cycle(n)
	case "complete":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		return Complete(n)
	case "circulant":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		if len(parts) < 3 {
			return nil, fmt.Errorf("gen: spec %q: missing offsets", spec)
		}
		var offsets []int
		for _, s := range strings.Split(parts[2], ",") {
			d, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("gen: spec %q: offset %q: %w", spec, s, err)
			}
			offsets = append(offsets, d)
		}
		return Circulant(n, offsets)
	case "harary":
		k, err := argInt(1)
		if err != nil {
			return nil, err
		}
		n, err := argN(2)
		if err != nil {
			return nil, err
		}
		return Harary(k, n)
	case "wheel":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		return Wheel(n)
	case "hypercube":
		d, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return Hypercube(d)
	case "bipartite":
		a, err := argN(1)
		if err != nil {
			return nil, err
		}
		b, err := argN(2)
		if err != nil {
			return nil, err
		}
		return CompleteBipartite(a, b)
	case "random":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		p, err := argInt(2)
		if err != nil {
			return nil, err
		}
		seed, err := argInt(3)
		if err != nil {
			return nil, err
		}
		return Random(n, float64(p)/100, int64(seed))
	case "figure1a":
		return Figure1a(), nil
	case "figure1b":
		return Figure1b(), nil
	case "petersen":
		return Petersen(), nil
	case "edges":
		n, err := argN(1)
		if err != nil {
			return nil, err
		}
		g := graph.New(n)
		if len(parts) < 3 || parts[2] == "" {
			return g, nil
		}
		for _, es := range strings.Split(parts[2], ",") {
			uv := strings.Split(es, "-")
			if len(uv) != 2 {
				return nil, fmt.Errorf("gen: spec %q: bad edge %q", spec, es)
			}
			u, err := strconv.Atoi(uv[0])
			if err != nil {
				return nil, fmt.Errorf("gen: spec %q: edge %q: %w", spec, es, err)
			}
			v, err := strconv.Atoi(uv[1])
			if err != nil {
				return nil, fmt.Errorf("gen: spec %q: edge %q: %w", spec, es, err)
			}
			if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
				return nil, err
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf("gen: unknown graph spec kind %q", kind)
	}
}
