package timeseries

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicAccess(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatal("new series should be empty")
	}
	s.Set(0, 1)
	s.Set(1, 2)
	if s.Len() != 2 || s.At(0) != 1 || s.At(1) != 2 {
		t.Fatal("set/at wrong")
	}
	if !IsMissing(s.At(-1)) || !IsMissing(s.At(5)) {
		t.Fatal("out-of-range access should be Missing")
	}
}

func TestSetGrows(t *testing.T) {
	s := New()
	s.Set(3, 9)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if !IsMissing(s.At(0)) || !IsMissing(s.At(2)) || s.At(3) != 9 {
		t.Fatal("gap should be Missing")
	}
	s.Set(-1, 5) // no-op
	if s.Len() != 4 {
		t.Fatal("negative Set must be a no-op")
	}
	s.Set(0, 7)
	if s.At(0) != 7 {
		t.Fatal("Set existing index failed")
	}
}

func TestWindowClipping(t *testing.T) {
	s := FromValues([]float64{0, 1, 2, 3, 4})
	w := s.Window(1, 3)
	if len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("window = %v", w)
	}
	if got := s.Window(-10, 100); len(got) != 5 {
		t.Fatalf("clipped window = %v", got)
	}
	if s.Window(4, 2) != nil {
		t.Fatal("inverted window should be nil")
	}
	w = s.Window(0, 2)
	w[0] = 42
	if s.At(0) == 42 {
		t.Fatal("Window must copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := FromValues([]float64{1, 2})
	c := s.Clone()
	c.Set(0, 100)
	if s.At(0) == 100 {
		t.Fatal("Clone must be deep")
	}
}

// Property: Window(lo,hi) always returns exactly the clipped range.
func TestWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		s := New()
		for i := 0; i < n; i++ {
			s.Set(i, float64(i))
		}
		lo, hi := r.Intn(40)-5, r.Intn(40)-5
		w := s.Window(lo, hi)
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > n {
			chi = n
		}
		want := 0
		if chi > clo {
			want = chi - clo
		}
		if len(w) != want {
			return false
		}
		for i, v := range w {
			if v != float64(clo+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
