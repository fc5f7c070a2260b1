package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// sampleTrace builds frontend -> (search -> geo), user.
func sampleTrace(slice int) *Trace {
	return &Trace{
		Slice: slice,
		Spans: []Span{
			{ID: 0, Parent: -1, Service: "frontend", StartUS: 0, DurationUS: 1000},
			{ID: 1, Parent: 0, Service: "search", StartUS: 100, DurationUS: 500},
			{ID: 2, Parent: 1, Service: "geo", StartUS: 150, DurationUS: 200},
			{ID: 3, Parent: 0, Service: "user", StartUS: 700, DurationUS: 200, Error: true},
		},
	}
}

func TestTraceValidate(t *testing.T) {
	if err := sampleTrace(0).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleTrace(0)
	bad.Spans[0].Parent = 5
	if bad.Validate() == nil {
		t.Fatal("non-root first span should fail")
	}
	bad = sampleTrace(0)
	bad.Spans[2].Parent = 99
	if bad.Validate() == nil {
		t.Fatal("unseen parent should fail")
	}
	bad = sampleTrace(0)
	bad.Spans[1].DurationUS = 99999 // escapes the root interval
	if bad.Validate() == nil {
		t.Fatal("child escaping parent should fail")
	}
	bad = sampleTrace(0)
	bad.Spans[1].ID = 0
	if bad.Validate() == nil {
		t.Fatal("duplicate span ID should fail")
	}
	if (&Trace{}).Validate() == nil {
		t.Fatal("empty trace should fail")
	}
}

func TestSamplerBounds(t *testing.T) {
	if !(Sampler{Rate: 1}).Keep(42) {
		t.Fatal("rate 1 keeps everything")
	}
	if (Sampler{Rate: 0}).Keep(42) {
		t.Fatal("rate 0 keeps nothing")
	}
	// Deterministic per trace ID.
	s := Sampler{Rate: 0.5}
	if s.Keep(7) != s.Keep(7) {
		t.Fatal("sampler must be deterministic")
	}
}

func TestSamplerRateApproximation(t *testing.T) {
	s := Sampler{Rate: 0.3}
	kept := 0
	const n = 20000
	for i := int64(0); i < n; i++ {
		if s.Keep(i) {
			kept++
		}
	}
	frac := float64(kept) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("sampling fraction %v far from 0.3", frac)
	}
}

func TestStoreCollect(t *testing.T) {
	st := NewStore(1)
	ok, err := st.Collect(sampleTrace(0))
	if err != nil || !ok {
		t.Fatalf("collect failed: %v %v", ok, err)
	}
	if st.Len() != 1 || st.Dropped() != 0 {
		t.Fatal("store counts wrong")
	}
	if _, err := st.Collect(&Trace{}); err == nil {
		t.Fatal("invalid trace should be rejected")
	}
	// Sampling drops some.
	st2 := NewStore(0)
	ok, err = st2.Collect(sampleTrace(0))
	if err != nil || ok {
		t.Fatal("rate-0 store should drop")
	}
	if st2.Dropped() != 1 {
		t.Fatal("dropped count wrong")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	st := NewStore(1)
	for i := 0; i < 2; i++ {
		if _, err := st.Collect(sampleTrace(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []*Trace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost traces: %d", len(got))
	}
	for i, tr := range got {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
	if got[1].TraceID != 1 || got[1].Spans[2].Service != "geo" {
		t.Fatal("span content lost")
	}
}

// Property: sampling keeps a trace independent of collection order.
func TestSamplerOrderIndependenceProperty(t *testing.T) {
	f := func(id int64, rate float64) bool {
		rate = math.Mod(math.Abs(rate), 1)
		s := Sampler{Rate: rate}
		a := s.Keep(id)
		b := s.Keep(id)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
