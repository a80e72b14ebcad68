package worlds

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRejects pins the loader's validation: a world file with an
// unknown field, or one that does not build, is an error naming the file.
func TestLoadRejects(t *testing.T) {
	for name, body := range map[string]string{
		"unknown-field": `{"graph": "figure1a", "f": 1, "input_pattern": [0, 1], "fautls": []}`,
		"bad-strategy":  `{"graph": "figure1a", "f": 1, "input_pattern": [0, 1], "faults": [{"node": 2, "strategy": "lazy"}]}`,
		"bad-model":     `{"graph": "figure1a", "f": 1, "input_pattern": [0, 1], "model": "radio"}`,
		"no-inputs":     `{"graph": "figure1a", "f": 1}`,
		"short-inputs":  `{"graph": "figure1a", "f": 1, "inputs": [0, 1]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Load error %v, want one naming the file", name, err)
		}
	}
}

// TestCorpusLoads loads the checked-in corpus and builds every world.
func TestCorpusLoads(t *testing.T) {
	corpus, err := Load(filepath.Join("..", "..", "testdata", "worlds"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range corpus {
		g := w.NewGraph()
		if len(w.Slab(g.N())) != g.N() || len(w.NewByzantine(g)) != len(w.Faults) {
			t.Errorf("%s: slab or adversaries do not match the world", w.Name)
		}
	}
}
