package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"murphy/internal/telemetry"
)

// Edge is one parsed association between two entities: a known caller→callee
// influence direction (Directed) or the loose metadata neighborhood default.
type Edge struct {
	From, To telemetry.EntityID
	Directed bool
}

// ParseEdgeList reads a plain-text edge list, the operator-facing format for
// overlaying known associations onto a telemetry snapshot (cmd/murphy
// -edges). One edge per line:
//
//	frontend-vm -> backend-vm    # a known directed (caller→callee) edge
//	backend-vm -- db-host        # a loose bidirectional association
//
// '#' starts a comment (whole-line or trailing); blank lines are ignored.
// Entity IDs are whitespace-free tokens. Self edges, empty IDs, and any
// other token layout are errors with a 1-based line number.
func ParseEdgeList(r io.Reader) ([]Edge, error) {
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: edge list line %d: want \"FROM -> TO\" or \"FROM -- TO\", got %d token(s)", lineNo, len(fields))
		}
		var directed bool
		switch fields[1] {
		case "->":
			directed = true
		case "--":
			directed = false
		default:
			return nil, fmt.Errorf("graph: edge list line %d: unknown connector %q (want -> or --)", lineNo, fields[1])
		}
		from, to := telemetry.EntityID(fields[0]), telemetry.EntityID(fields[2])
		if from == to {
			return nil, fmt.Errorf("graph: edge list line %d: self edge on %q", lineNo, from)
		}
		edges = append(edges, Edge{From: from, To: to, Directed: directed})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: edge list: %w", err)
	}
	return edges, nil
}

// ApplyEdgeList records the parsed edges as associations in the database.
// Edges naming unknown entities are reported, not silently dropped.
func ApplyEdgeList(db *telemetry.DB, edges []Edge) error {
	for _, e := range edges {
		kind := telemetry.Bidirectional
		if e.Directed {
			kind = telemetry.Directed
		}
		if err := db.Associate(e.From, e.To, kind); err != nil {
			return err
		}
	}
	return nil
}
