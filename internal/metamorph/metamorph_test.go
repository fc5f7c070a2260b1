package metamorph

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"murphy/internal/telemetry"
)

// fixedBase is the fixed base seed of the checked-in suite: quick CI runs
// and the full sweep both expand their cases from it, so every reported
// failure carries replayable coordinates.
const fixedBase int64 = 0x6d757270 // "murp"

// casesPerFamily returns how many fuzzed cases per family a test should run:
// the quick default in ordinary test runs, METAMORPH_CASES when set, and the
// full acceptance sweep under METAMORPH_FULL=1.
func casesPerFamily(t *testing.T, quick int) int {
	t.Helper()
	if v := os.Getenv("METAMORPH_CASES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad METAMORPH_CASES=%q", v)
		}
		return n
	}
	if os.Getenv("METAMORPH_FULL") == "1" {
		return 200
	}
	return quick
}

// TestCaseSeedKnownAnswers pins the seed hash to its published values and
// CaseSeed to the sub-seeds every recorded replay coordinate and the accuracy
// baseline were generated from: splitMix64 against the reference SplitMix64
// stream seeded at 0 (counters 0, γ and 2γ), and CaseSeed(1, family, 0).
func TestCaseSeedKnownAnswers(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := splitMix64(uint64(i) * splitmixGamma); got != want {
			t.Errorf("splitMix64(%d·γ) = %#x, want %#x", i, got, want)
		}
	}
	for fam, want := range map[string]int64{
		FamilyHeavyHitter:   5608117635076166250,
		FamilyNoisyNeighbor: 5441367168641397064,
		FamilyCascade:       4194556232451648445,
		FamilyConfounder:    6179920516212490351,
		FamilyEnterprise:    7305773262535642150,
	} {
		if got := CaseSeed(1, fam, 0); got != want {
			t.Errorf("CaseSeed(1, %q, 0) = %d, want %d", fam, got, want)
		}
	}
}

// TestMetamorphGenerateDeterministic pins the replay contract: the same
// (family, index, base) triple must regenerate a byte-identical case.
func TestMetamorphGenerateDeterministic(t *testing.T) {
	for _, fam := range Families {
		a, err := Generate(fam, 3, fixedBase)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(fam, 3, fixedBase)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seed != b.Seed || a.Symptom != b.Symptom || a.Truth != b.Truth {
			t.Fatalf("%s: regenerated case differs: %+v vs %+v", fam, a, b)
		}
		if snapshot(t, a.DB) != snapshot(t, b.DB) {
			t.Fatalf("%s: regenerated telemetry differs", fam)
		}
		c, err := Generate(fam, 4, fixedBase)
		if err != nil {
			t.Fatal(err)
		}
		if c.Seed == a.Seed {
			t.Fatalf("%s: distinct indices produced the same sub-seed", fam)
		}
	}
}

func snapshot(t *testing.T, db *telemetry.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetamorphInvariants fuzzes scenarios per family and checks every
// metamorphic invariant (rename, edge permutation, rescaling, decoys,
// truth ablation) against the reference diagnosis.
func TestMetamorphInvariants(t *testing.T) {
	n := casesPerFamily(t, 3)
	for _, fam := range Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < n; i++ {
				c, err := Generate(fam, i, fixedBase)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckInvariants(c); err != nil {
					t.Fatalf("invariant violated: %v (replay: Generate(%q, %d, %d))", err, fam, i, fixedBase)
				}
			}
		})
	}
}

// TestMetamorphCrossConfigs fuzzes scenarios per family and checks that
// every fast-path configuration (early-stop × workers, plus store reuse)
// agrees with the reference serial path.
func TestMetamorphCrossConfigs(t *testing.T) {
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
				if err := CheckCrossConfigs(c); err != nil {
					t.Fatalf("fast-path disagreement: %v (replay: Generate(%q, %d, %d))", err, fam, i, fixedBase)
				}
			}
		})
	}
}

// TestMetamorphIncrementalSlide fuzzes scenarios per family and checks the
// incremental trainer's sliding contract: a factor store slid one slice at a
// time must arrive within the certified rounding bound of a from-scratch
// retrain, with the same selected features and the same decisive causes.
func TestMetamorphIncrementalSlide(t *testing.T) {
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
				if err := CheckIncrementalSlide(c); err != nil {
					t.Fatalf("incremental slide diverged: %v (replay: Generate(%q, %d, %d))", err, fam, i, fixedBase)
				}
			}
		})
	}
}

// TestMetamorphTruthFound sanity-checks the fuzzer itself: on a sample of
// cases per family, the reference diagnosis should rank an acceptable
// entity in its top 5 most of the time — a fuzzer whose ground truth the
// pipeline cannot find would make every invariant vacuous.
func TestMetamorphTruthFound(t *testing.T) {
	n := casesPerFamily(t, 4)
	for _, fam := range Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			hits := 0
			for i := 0; i < n; i++ {
				c, err := Generate(fam, i, fixedBase)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Diagnose(c, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ranked := d.Ranked()
				for k, id := range ranked {
					if k >= 5 {
						break
					}
					if c.Accept[id] {
						hits++
						break
					}
				}
			}
			if hits*2 < n {
				t.Fatalf("top-5 hit on only %d/%d cases — fuzzer ground truth too hard for the pipeline", hits, n)
			}
		})
	}
}

func ExampleGenerate() {
	c, err := Generate(FamilyCascade, 0, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Family, c.Symptom.Metric, c.Symptom.High)
	// Output: cascade latency true
}
