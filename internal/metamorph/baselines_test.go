// Baseline metamorphic invariants: the NetMedic / ExplainIt / Sage
// comparison points must be as transform-stable as Murphy itself, or the
// comparative accuracy table would measure harness artifacts instead of
// methods. This lives in an external test package because the invariants
// rank each case through the harness's one comparison path, harness.RankCase
// (harness imports metamorph).
package metamorph_test

import (
	"testing"

	"murphy/internal/harness"
	"murphy/internal/metamorph"
	"murphy/internal/netmedic"
	"murphy/internal/telemetry"
)

// rankCase ranks a case with every scheme. Murphy's rename invariance needs
// the RNG seed hook and is already covered bit-for-bit by
// metamorph.CheckInvariants; the baselines are sampling-free, so their
// rankings must survive the transforms with no hooks at all.
func rankCase(t *testing.T, c *metamorph.Case) map[string][]telemetry.EntityID {
	t.Helper()
	rs, err := harness.RankCase(c)
	if err != nil {
		t.Fatalf("%s[%d] seed=%d: %v", c.Family, c.Index, c.Seed, err)
	}
	return rs
}

func equalIDs(a, b []telemetry.EntityID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBaselineRenameInvariant: an order-preserving entity rename must leave
// every baseline's ranking identical modulo the renaming. The baselines rank
// by data-derived scores with entity-ID tie-breaks, and a monotone rename
// preserves ID comparisons, so the mapped-back ranking must match exactly.
func TestBaselineRenameInvariant(t *testing.T) {
	for _, fam := range metamorph.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			c, err := metamorph.Generate(fam, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := rankCase(t, c)
			renamed, inv := metamorph.Rename(c)
			got := rankCase(t, renamed)
			for _, s := range harness.Schemes {
				if s == harness.SchemeMurphy {
					continue
				}
				mapped := make([]telemetry.EntityID, len(got[s]))
				for i, id := range got[s] {
					mapped[i] = inv[id]
				}
				if !equalIDs(ref[s], mapped) {
					t.Errorf("%s: ranking not rename-invariant:\nref:     %v\nrenamed: %v", s, ref[s], mapped)
				}
			}
		})
	}
}

// TestBaselinePermuteEdgesInvariant: association-edge (and call-DAG edge)
// insertion order must be immaterial to every method — the DB's neighbor
// accessors sort, and Sage's ranking seeds its BFS deterministically.
// Murphy is included: its permute invariance holds bit-for-bit with no hook.
func TestBaselinePermuteEdgesInvariant(t *testing.T) {
	for _, fam := range metamorph.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			c, err := metamorph.Generate(fam, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := rankCase(t, c)
			got := rankCase(t, metamorph.PermuteEdges(c, c.Seed+1))
			for _, s := range harness.Schemes {
				if !equalIDs(ref[s], got[s]) {
					t.Errorf("%s: ranking depends on edge insertion order:\nref:      %v\npermuted: %v", s, ref[s], got[s])
				}
			}
		})
	}
}

// TestRescaleKeepsNetMedicAbnormalityOrder: a per-metric power-of-two unit
// rescale multiplies means and standard deviations by the same exact factor,
// so every z-score — and therefore NetMedic's per-entity abnormality and its
// induced ordering — must survive bit for bit.
func TestRescaleKeepsNetMedicAbnormalityOrder(t *testing.T) {
	for _, fam := range metamorph.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			c, err := metamorph.Generate(fam, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			scaled := metamorph.Rescale(c, c.Seed+2)
			hi := c.DB.Len()
			lo := hi - metamorph.BaseConfig().TrainWindow
			if lo < 0 {
				lo = 0
			}
			for _, id := range c.DB.Entities() {
				a := netmedic.Abnormality(c.DB, id, lo, hi)
				b := netmedic.Abnormality(scaled.DB, id, lo, hi)
				if a != b {
					t.Errorf("abnormality of %s changed under rescale: %v -> %v", id, a, b)
				}
			}
		})
	}
}
