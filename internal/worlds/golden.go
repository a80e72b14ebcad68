package worlds

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// The golden files (testdata/golden, one per pinned world, named after
// it) pin the observable behavior of a world's Session run — decisions,
// rounds, round budget, metrics, and the complete canonical transmission
// trace (which fixes delivery order, since the engine delivers in trace
// order). They were recorded before the compact message-identity
// refactor; representation changes must keep every one byte-identical.

// GoldenTransmission is one physical transmission in canonical trace
// order.
type GoldenTransmission struct {
	Round     int            `json:"round"`
	From      graph.NodeID   `json:"from"`
	Receivers []graph.NodeID `json:"receivers"`
	Payload   string         `json:"payload"`
}

// Golden is the full recorded execution of one world. The complete
// canonical transmission trace is always pinned via its SHA-256 digest;
// traces small enough to diff by eye are additionally stored inline.
type Golden struct {
	Decisions     map[graph.NodeID]sim.Value `json:"decisions"`
	Agreement     bool                       `json:"agreement"`
	Validity      bool                       `json:"validity"`
	Termination   bool                       `json:"termination"`
	Rounds        int                        `json:"rounds"`
	RoundBudget   int                        `json:"round_budget"`
	Transmissions int                        `json:"transmissions"`
	Deliveries    int                        `json:"deliveries"`
	TraceLen      int                        `json:"trace_len"`
	TraceSHA256   string                     `json:"trace_sha256"`
	Trace         []GoldenTransmission       `json:"trace,omitempty"`
}

// maxInlineTrace bounds the transmissions stored verbatim in a golden file;
// larger traces (transcript payloads run to megabytes) keep only the digest.
const maxInlineTrace = 600

// SetTrace records recs as g's trace: its length, the SHA-256 of its
// JSON-lines encoding (one GoldenTransmission per line), and the inline
// copy when it is short enough.
func (g *Golden) SetTrace(recs []sim.Transmission) {
	h := sha256.New()
	g.TraceLen = len(recs)
	g.Trace = nil
	for _, tr := range recs {
		gt := GoldenTransmission{
			Round:     tr.Round,
			From:      tr.From,
			Receivers: tr.Receivers,
			Payload:   tr.Payload.Key(),
		}
		line, err := json.Marshal(gt)
		if err != nil {
			panic(err) // ints, node ids and a string always encode
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		if len(recs) <= maxInlineTrace {
			g.Trace = append(g.Trace, gt)
		}
	}
	g.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
}

// JSON is the golden file's bytes.
func (g *Golden) JSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// ReadGolden reads dir/name.json. It returns nil and no error when the
// world has no golden file.
func ReadGolden(dir, name string) (*Golden, error) {
	data, err := os.ReadFile(GoldenPath(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	g := new(Golden)
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// GoldenPath is the golden file of world name in dir.
func GoldenPath(dir, name string) string { return filepath.Join(dir, name+".json") }
