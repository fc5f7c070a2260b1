package tracing

import (
	"encoding/json"
	"io"
)

// WriteJSON exports the sampled traces as a JSON array, the format of the
// trace dataset released with the paper's artifacts.
func (st *Store) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(st.traces)
}
