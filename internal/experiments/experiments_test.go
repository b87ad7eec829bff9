package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/workload"
)

// Every scenario that bench_test.go and cmd/wfbench drive must pass its
// own behavioural checks; this test runs each once so a broken scenario
// fails the suite, not just the benchmarks.

func TestFigureScenarios(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		f := experiments.NewFig1(4)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig2", func(t *testing.T) {
		f := experiments.NewFig2()
		defer f.Close()
		for i := 0; i < 5; i++ {
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("fig3", func(t *testing.T) {
		f := experiments.NewFig3(3)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig5", func(t *testing.T) {
		f := experiments.NewFig5(3)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig6", func(t *testing.T) {
		f := experiments.NewFig6()
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig7", func(t *testing.T) {
		f := experiments.NewFig7()
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig89", func(t *testing.T) {
		f := experiments.NewFig89(2)
		defer f.Close()
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFig4FullStackScenario(t *testing.T) {
	f, err := experiments.NewFig4()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestX1Scenario(t *testing.T) {
	res, err := experiments.X1CrashRecovery(4, experiments.X1Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReExecuted {
		t.Fatal("completed task re-executed after recovery")
	}
	if res.RecoveryTime <= 0 {
		t.Fatal("recovery time not measured")
	}
}

func TestX2Scenario(t *testing.T) {
	x, err := experiments.NewX2()
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 3; i++ {
		if err := x.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestX3Scenario(t *testing.T) {
	w := experiments.NewX3("chain8", workload.Chain(8))
	defer w.Close()
	if err := w.RunEngine(); err != nil {
		t.Fatal(err)
	}
	if st := w.RunECA(); st.TasksStarted != 8 {
		t.Fatalf("eca started %d", st.TasksStarted)
	}
	if st := w.RunPetri(); st.TasksStarted != 8 {
		t.Fatalf("petri started %d", st.TasksStarted)
	}
	script, rules, net := w.SpecSizes()
	// The net encodes both places and transitions, so it is always the
	// largest; rule count approaches the script size only when there are
	// no alternative sources to unroll.
	if script <= 0 || rules <= 0 || net <= rules {
		t.Fatalf("spec sizes out of expected order: script=%d rules=%d net=%d", script, rules, net)
	}
}

func TestX5Scenario(t *testing.T) {
	x, err := experiments.NewX5(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// The client reuses connections, so faults accumulate over several
	// runs (drops after a frame budget, refusals on re-dial).
	for i := 0; i < 5; i++ {
		if err := x.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if x.Faults() == 0 {
		t.Error("no faults injected across 5 runs at p=0.3; scenario is vacuous")
	}
}

func TestAblationConfigurations(t *testing.T) {
	for _, eph := range []bool{true, false} {
		f, err := experiments.AblationEnv(store.NewMemStore(), eph)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(); err != nil {
			t.Fatalf("ephemeral=%v: %v", eph, err)
		}
		f.Close()
	}
	ws, closeStore, err := store.Open("wal", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()
	f, err := experiments.AblationEnv(ws, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(); err != nil {
		t.Fatalf("walstore: %v", err)
	}
}

func TestTxnThroughputHelper(t *testing.T) {
	reg := experiments.NewPersistRegistry()
	obj := reg.Object("t/counter")
	for i := 0; i < 10; i++ {
		if err := experiments.TxnThroughput(reg, obj); err != nil {
			t.Fatal(err)
		}
	}
	var v int
	if err := obj.Peek(&v); err != nil || v != 10 {
		t.Fatalf("counter = %d, %v; want 10", v, err)
	}
}
