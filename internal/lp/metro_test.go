package lp_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/slice"
	"repro/internal/topology"
)

// metroPod holds the LPs of one metro pod's cold Benders solve: a 24-BS
// strict-tree pod with the metro archetype's first-round batch (two uRLLC,
// one eMBB, one mMTC request), taken through Algorithm 1 to convergence.
// Built once per process.
var metroPod struct {
	once     sync.Once
	master   *lp.Problem
	binaries []int
	slave    *lp.Problem
	err      error
}

func metroPodLPs(tb testing.TB) (master *lp.Problem, binaries []int, slave *lp.Problem) {
	tb.Helper()
	metroPod.once.Do(func() {
		net := topology.Metro(topology.MetroPodBS)
		var tenants []core.TenantSpec
		for k, ty := range []slice.Type{slice.URLLC, slice.URLLC, slice.EMBB, slice.MMTC} {
			sla := slice.SLA{Template: slice.Table1(ty), Duration: 1 << 20}.WithPenaltyFactor(1)
			tenants = append(tenants, core.TenantSpec{
				Name: string(rune('a' + k)), SLA: sla,
				LambdaHat: sla.RateMbps, Sigma: 1, RemainingEpochs: sla.Duration,
			})
		}
		inst := &core.Instance{Net: net, Paths: net.Paths(1), Tenants: tenants, Overbook: true, BigM: 1e4}
		metroPod.master, metroPod.binaries, metroPod.slave, metroPod.err = core.DebugBendersMaster(inst, 200)
	})
	if metroPod.err != nil {
		tb.Fatal(metroPod.err)
	}
	return metroPod.master, metroPod.binaries, metroPod.slave
}

// boundedRoot is the master's root relaxation exactly as milp.Solve first
// solves it: binaries boxed in [0, 1], then presolved.
func boundedRoot(master *lp.Problem, binaries []int) *lp.Problem {
	root := master.Clone()
	for _, v := range binaries {
		root.SetBounds(v, 0, 1)
	}
	return lp.Presolve(root).Reduced
}

// TestMetroPodMatchesOracles runs the production cold kernels against the
// reference ones on a real metro pod: the Benders master (plain, and as the
// bounded presolved root milp.Solve factorizes) and the slave at the last
// evaluated x̄, then refactorizes each captured optimal basis both ways.
func TestMetroPodMatchesOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("metro pod build takes seconds")
	}
	master, binaries, slave := metroPodLPs(t)
	for _, c := range []struct {
		name  string
		p     *lp.Problem
		every int // compare whole tableaus every this many pivots
	}{
		{"master", master, 1},
		{"master-root", boundedRoot(master, binaries), 1},
		{"slave", slave, 97},
	} {
		st, err := lp.CheckColdOracle(c.p, c.every)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st != lp.Optimal {
			t.Fatalf("%s: status %v, want optimal", c.name, st)
		}
		var b lp.Basis
		if _, err := c.p.SolveFrom(&b); err != nil {
			t.Fatal(err)
		}
		ok, err := lp.CheckRefactorOracle(c.p, &b)
		if err != nil {
			t.Fatalf("%s refactor: %v", c.name, err)
		}
		if !ok {
			t.Fatalf("%s: captured optimal basis is singular", c.name)
		}
	}
}

// BenchmarkLURefactor times one sparse LU refactorization of a metro pod
// master's optimal basis (the bounded, presolved root milp.Solve starts
// from): the kernel every branch-and-bound refactorization runs.
func BenchmarkLURefactor(b *testing.B) {
	master, binaries, _ := metroPodLPs(b)
	root := boundedRoot(master, binaries)
	var basis lp.Basis
	if _, err := root.SolveFrom(&basis); err != nil {
		b.Fatal(err)
	}
	lu := lp.NewLURefactorer(root, &basis)
	if !lu.Refactor() {
		b.Fatal("singular basis")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lu.Refactor() {
			b.Fatal("singular basis")
		}
	}
	b.ReportMetric(float64(lu.Rows()), "rows")
}

// BenchmarkColdMasterSolve times one cold metro pod Benders master through
// milp.Solve: presolve, the cold bounded root tableau, and the warm
// branch-and-bound below it — the solve Algorithm 1 repeats after every
// cut during a metro cold start.
func BenchmarkColdMasterSolve(b *testing.B) {
	master, binaries, _ := metroPodLPs(b)
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		sol, err := milp.Solve(master, binaries, milp.Options{MaxNodes: 100000})
		if err != nil || sol.Status != milp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
		pivots += sol.Pivots
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
