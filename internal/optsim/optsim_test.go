package optsim

import (
	"math"
	"testing"
	"testing/quick"
)

// testSeed offsets the LPs' streams in every test run.
const testSeed = 12345

func counts(states []State) []int64 {
	out := make([]int64, len(states))
	for i, s := range states {
		out[i] = s.(*countState).count
	}
	return out
}

func TestOptimisticMatchesSequential(t *testing.T) {
	m := &CountModel{N: 6, RemoteProb: 0.5, MeanDelay: 1.0, Seed: testSeed}
	f := NewFederation(m, 6, 300)
	opt := counts(f.Run())
	seqStates, seqCounts := RunSequential(m, 6, 300)
	seq := counts(seqStates)
	for i := range opt {
		if opt[i] != seq[i] {
			t.Fatalf("LP %d: optimistic %d vs sequential %d\nopt %v\nseq %v",
				i, opt[i], seq[i], opt, seq)
		}
		if uint64(seq[i]) != seqCounts[i] {
			t.Fatalf("sequential internal mismatch at %d", i)
		}
	}
	st := f.Stats()
	if st.NetEvents == 0 {
		t.Fatal("no events committed")
	}
}

func TestSpeculationActuallyHappens(t *testing.T) {
	// Heterogeneous tempos force stragglers: LP 0 is fast, LP 1 slow,
	// cross-traffic lands in the fast LP's past.
	m := &CountModel{N: 4, RemoteProb: 0.6, MeanDelay: 1.0, Seed: testSeed}
	f := NewFederation(m, 4, 500)
	f.Run()
	st := f.Stats()
	if st.Rollbacks == 0 {
		t.Fatal("round-robin speculation produced no rollbacks; Time Warp untested")
	}
	if st.Retractions == 0 {
		t.Fatal("no anti-messages sent")
	}
	if st.Executions <= st.NetEvents {
		t.Fatalf("executions %d not above net %d despite rollbacks", st.Executions, st.NetEvents)
	}
	eff := st.Efficiency()
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency = %v", eff)
	}
	if st.MaxRollback == 0 {
		t.Fatal("max rollback depth not recorded")
	}
}

func TestQuickEquivalenceRandomModels(t *testing.T) {
	// Property: for random model parameters, optimistic == sequential.
	fn := func(seed uint8, probRaw uint8, nRaw uint8) bool {
		n := int(nRaw%5) + 2
		m := &CountModel{
			N:          n,
			RemoteProb: float64(probRaw) / 255,
			MeanDelay:  0.5 + float64(seed)/64,
			Seed:       testSeed,
		}
		f := NewFederation(m, n, 120)
		opt := counts(f.Run())
		seqStates, _ := RunSequential(m, n, 120)
		seq := counts(seqStates)
		for i := range opt {
			if opt[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGVTMonotoneAndCommits(t *testing.T) {
	m := &CountModel{N: 3, RemoteProb: 0.4, MeanDelay: 1.0, Seed: testSeed}
	f := NewFederation(m, 3, 100)
	prev := 0.0
	for {
		progressed := false
		for _, lp := range f.lps {
			if f.step(lp) {
				progressed = true
			}
		}
		gvt := f.GVT()
		if gvt < prev {
			t.Fatalf("GVT went backwards: %v -> %v", prev, gvt)
		}
		prev = gvt
		if !progressed {
			break
		}
	}
	if !math.IsInf(f.GVT(), 1) {
		// All events within horizon executed: remaining ones are past
		// the horizon, so GVT is their min, which is > horizon.
		if f.GVT() <= 100 {
			t.Fatalf("GVT %v not past horizon", f.GVT())
		}
	}
}

func TestValidation(t *testing.T) {
	m := &CountModel{N: 2, RemoteProb: 0, MeanDelay: 1, Seed: testSeed}
	for name, fn := range map[string]func(){
		"bad n":       func() { NewFederation(m, 0, 1) },
		"bad horizon": func() { NewFederation(m, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// badSendModel emits a non-positive delay to test the guard.
type badSendModel struct{ CountModel }

func (m *badSendModel) Handle(lp int, raw State, ev Message) (State, []Send) {
	return raw, []Send{{To: 0, Delay: 0}}
}

func TestZeroDelaySendPanics(t *testing.T) {
	m := &badSendModel{CountModel{N: 2, RemoteProb: 0, MeanDelay: 1, Seed: testSeed}}
	f := NewFederation(m, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Run()
}

func TestStatsEfficiencyEmptyRun(t *testing.T) {
	var s Stats
	if s.Efficiency() != 1 {
		t.Fatal("empty efficiency")
	}
}
