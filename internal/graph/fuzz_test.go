package graph

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// formatEdgeList renders edges in the ParseEdgeList format, one per line:
// the oracle of the parser's round trip.
func formatEdgeList(w io.Writer, edges []Edge) error {
	for _, e := range edges {
		conn := "--"
		if e.Directed {
			conn = "->"
		}
		if _, err := fmt.Fprintf(w, "%s %s %s\n", e.From, conn, e.To); err != nil {
			return err
		}
	}
	return nil
}

// FuzzParseEdgeList checks that the edge-list parser never panics, never
// yields malformed edges on accepted input, and round-trips through
// formatEdgeList exactly. Parsed IDs can never contain whitespace (they are
// whitespace-split tokens) or '#' (a '#' truncates the line before
// tokenization), which is exactly what makes the round trip lossless.
func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("a -> b\n"))
	f.Add([]byte("a -- b\nb -> c # trailing comment\n# full comment\n\n"))
	f.Add([]byte("frontend-vm -> backend-vm\nbackend-vm -- db-host"))
	f.Add([]byte("x -> x\n"))           // self edge: must error
	f.Add([]byte("a => b\n"))           // bad connector: must error
	f.Add([]byte("a -> b c\n"))         // token count: must error
	f.Add([]byte("\xff\xfe -> \x00\n")) // non-UTF8 IDs are tolerated
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ParseEdgeList(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for i, e := range edges {
			if e.From == e.To {
				t.Fatalf("edge %d: self edge %q survived parsing", i, e.From)
			}
			for _, id := range []string{string(e.From), string(e.To)} {
				if id == "" || strings.ContainsAny(id, " \t\n\v\f\r#") {
					t.Fatalf("edge %d: malformed ID %q", i, id)
				}
			}
		}
		var buf bytes.Buffer
		if err := formatEdgeList(&buf, edges); err != nil {
			t.Fatalf("format: %v", err)
		}
		again, err := ParseEdgeList(&buf)
		if err != nil {
			t.Fatalf("reparse of formatted output failed: %v\n%s", err, buf.String())
		}
		if len(edges) != len(again) || (len(edges) > 0 && !reflect.DeepEqual(edges, again)) {
			t.Fatalf("round trip changed edges:\n got %v\nwant %v", again, edges)
		}
	})
}
