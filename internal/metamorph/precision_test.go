package metamorph

import (
	"testing"

	"murphy/internal/core"
)

// TestMetamorphFloat32Families validates the float32 fast-path kernel across
// every fuzzed family with the two invariants its design promises:
//
//   - Rescale equivalence *within* the float32 kernel: an affine rescaling of
//     unit-bearing metrics must leave the certified root-cause set intact,
//     exactly as the float64 rescale invariant demands. Both runs share the
//     same deterministic noise streams, so this holds as set equality.
//
//   - Decisive-cause agreement *against* float64: the float32 kernel draws
//     from different noise streams with different rounding, so it sits in the
//     same statistical-noise band as early stopping —
//     decisive causes (p and effect with stream-stable margin) must match
//     exactly; borderline bystanders may flip, and empirically ~1 in 6 fuzzed
//     cases flips one. The Table-2 workload's full certified-set equality is
//     pinned separately by the fastpath harness (F32CausesIdentical).
func TestMetamorphFloat32Families(t *testing.T) {
	n := casesPerFamily(t, 2)
	for _, fam := range Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				c, err := Generate(fam, i, fixedBase)
				if err != nil {
					t.Fatal(err)
				}
				f32 := Options{Samples: crossCheckSamples, Precision: core.PrecisionFloat32}
				ref32, err := Diagnose(c, f32)
				if err != nil {
					t.Fatalf("float32 reference: %v", err)
				}

				// Rescale equivalence at float32.
				got, err := Diagnose(Rescale(c, c.Seed+2), f32)
				if err != nil {
					t.Fatalf("float32 rescale: %v", err)
				}
				if err := sameCertified(ref32, got, identity); err != nil {
					t.Errorf("float32 rescale invariant: %v (replay: Generate(%q, %d, %d))", err, fam, i, fixedBase)
				}

				// Decisive-cause agreement with the float64 kernel.
				ref64, err := Diagnose(c, Options{Samples: crossCheckSamples})
				if err != nil {
					t.Fatalf("float64 reference: %v", err)
				}
				if err := agreeCertified(ref64, ref32); err != nil {
					t.Errorf("float32 vs float64: %v (replay: Generate(%q, %d, %d))", err, fam, i, fixedBase)
				}
			}
		})
	}
}

// TestMetamorphFloat32Deterministic pins the float32 kernel's replay
// contract: identical case and configuration must reproduce the identical
// diagnosis (entity, score, p-value, effect, sample count) — the fast path
// trades the float64 kernel's streams away but not its determinism.
func TestMetamorphFloat32Deterministic(t *testing.T) {
	for _, fam := range Families {
		c, err := Generate(fam, 0, fixedBase)
		if err != nil {
			t.Fatal(err)
		}
		f32 := Options{Samples: crossCheckSamples, Precision: core.PrecisionFloat32}
		a, err := Diagnose(c, f32)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Diagnose(c, f32)
		if err != nil {
			t.Fatal(err)
		}
		if err := bitIdentical(a, b, identity); err != nil {
			t.Errorf("%s: float32 rerun differs: %v", fam, err)
		}
	}
}
