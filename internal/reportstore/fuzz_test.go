package reportstore

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReplayFrame frames an arbitrary body with a correct CRC and requires
// replay's decoder to accept exactly what json.Unmarshal into a Record
// accepts, and to yield the same Record: every indexed field and the payload
// bytes. The checked-in corpus (testdata/fuzz/FuzzReplayFrame) holds frames
// Append wrote, with and without a payload, and the bodies where splitting
// at the first payload key could go wrong: reordered and duplicate keys,
// escaped quotes and the key inside string values and nested objects,
// {,"payload":{}}, whitespace around the payload, and trailing data.
func FuzzReplayFrame(f *testing.F) {
	// encoding/json caps nesting at 10,000 levels, and in the body the
	// payload sits one level down: 9,999 levels decode, 10,000 do not.
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		f.Add([]byte(`{"entity":"e","payload":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFrameLen {
			return // replay reads such a length as a corrupt header
		}
		frame := encodeFrame(nil, body)
		got, n, ok := decodeFrame(frame)
		var want Record
		err := json.Unmarshal(body, &want)
		if ok != (err == nil) {
			t.Fatalf("replay accepted %v, json.Unmarshal error %v, body %q", ok, err, body)
		}
		if !ok {
			return
		}
		if n != len(frame) {
			t.Fatalf("replay consumed %d of %d frame bytes", n, len(frame))
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("replay decoded %+v (payload %q),\njson.Unmarshal %+v (payload %q),\nbody %q", *got, got.Payload, want, want.Payload, body)
		}
	})
}
