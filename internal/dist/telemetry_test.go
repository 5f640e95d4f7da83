package dist

import (
	"testing"

	"distmatch/internal/telemetry"
)

// TestEngineTelemetry: installed process-wide telemetry accumulates the
// run's Stats exactly, across fresh and Runner runs; an aborted run
// counts only toward the aborted counter; uninstalling stops recording.
func TestEngineTelemetry(t *testing.T) {
	defer SetTelemetry(nil)
	reg := telemetry.New(telemetry.Options{})
	SetTelemetry(reg)
	runs := reg.Counter("engine_runs_total", "")
	rounds := reg.Counter("engine_rounds_total", "")
	msgs := reg.Counter("engine_messages_total", "")
	aborted := reg.Counter("engine_runs_aborted_total", "")
	sweep := reg.Histogram("engine_sweep_ns", "")

	g := triangle(t)
	program := func(*Node) RoundProgram { return beaconProg{} }
	st := RunFlat(g, Config{Seed: 1}, program)
	if runs.Value() != 1 || rounds.Value() != int64(st.Rounds) || msgs.Value() != st.Messages {
		t.Fatalf("after RunFlat: runs=%d rounds=%d msgs=%d, want 1/%d/%d",
			runs.Value(), rounds.Value(), msgs.Value(), st.Rounds, st.Messages)
	}
	if sweep.Count() != 1 {
		t.Fatalf("sweep histogram count %d, want 1", sweep.Count())
	}

	// Further fresh and Runner runs accumulate into the same counters.
	st2 := RunFlat(g, Config{Seed: 2}, program)
	r := NewRunner(g, Config{})
	defer r.Close()
	st3 := r.RunFlat(2, program)
	st4 := r.RunFlat(3, program)
	if runs.Value() != 4 {
		t.Fatalf("runs=%d, want 4", runs.Value())
	}
	wantMsgs := st.Messages + st2.Messages + st3.Messages + st4.Messages
	if msgs.Value() != wantMsgs {
		t.Fatalf("msgs=%d, want %d", msgs.Value(), wantMsgs)
	}

	// A MaxRounds abort re-panics and lands in the aborted counter only.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MaxRounds run did not panic")
			}
		}()
		RunFlat(g, Config{Seed: 1, MaxRounds: 1}, forever)
	}()
	if aborted.Value() != 1 || runs.Value() != 4 {
		t.Fatalf("after abort: aborted=%d runs=%d, want 1/4", aborted.Value(), runs.Value())
	}

	// Uninstall: further runs record nothing.
	SetTelemetry(nil)
	RunFlat(g, Config{Seed: 1}, program)
	if runs.Value() != 4 {
		t.Fatalf("uninstalled telemetry still recorded: runs=%d", runs.Value())
	}
}

// beaconProg is a minimal one-round RoundProgram for telemetry tests.
type beaconProg struct{}

func (beaconProg) Init(nd *Node) bool                   { nd.SendAll(Signal{}); return true }
func (beaconProg) OnRound(nd *Node, in []Incoming) bool { return false }
