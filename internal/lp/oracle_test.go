package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the full-width tableau pivot and the O(step)-scan LU
// refactorization as reference implementations, and checks that the
// production kernels reproduce them exactly: the same pivot choices, the
// same tableau entry by entry, the same L/U factors and permutations, and
// the same X/Dual/Ray under float ==. The only permitted difference is the
// sign of a zero, which == does not see.

// refPivot is the full-width pivot the sparse-row kernel replaced: the
// pivot row is scaled across every column and every other row, and the
// reduced-cost row, is swept across every column.
func refPivot(t *tableau, leave, enter int) {
	t.pivots++
	rowL := t.row(leave)
	inv := 1 / rowL[enter]
	for j := 0; j <= t.width; j++ {
		rowL[j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		ri := t.row(i)
		f := ri[enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= t.width; j++ {
			ri[j] -= f * rowL[j]
		}
		ri[enter] = 0
	}
	f := t.obj[enter]
	if f != 0 {
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= f * rowL[j]
		}
		t.obj[enter] = 0
	}
	t.basis[leave] = enter
}

// refRefactor is the left-looking elimination with the flat scan over
// every earlier step that the bitset walk replaced.
func refRefactor(f *sparseLU, r *revised) bool {
	m := r.m
	f.reset(m)
	if m == 0 {
		return true
	}
	cnt := f.cnt[: m+2 : m+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for k := 0; k < m; k++ {
		n := r.colNNZ(r.bs.cols[k])
		if n > m {
			n = m
		}
		cnt[n+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for k := 0; k < m; k++ {
		n := r.colNNZ(r.bs.cols[k])
		if n > m {
			n = m
		}
		f.order[cnt[n]] = int32(k)
		cnt[n]++
	}
	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.work[i] = 0
		f.mark[i] = 0
	}
	f.stamp = 0
	for step := 0; step < m; step++ {
		pos := f.order[step]
		col := r.bs.cols[pos]
		if col < 0 || col >= r.width {
			return false
		}
		f.ucPtr[step] = int32(len(f.ucIdx))
		f.stamp++
		nz := f.nzRows[:0]
		w := f.work
		if col < r.n {
			ws := r.ws
			for t := ws.colPtr[col]; t < ws.colPtr[col+1]; t++ {
				row := ws.colRow[t]
				if f.mark[row] != f.stamp {
					f.mark[row] = f.stamp
					w[row] = 0
					nz = append(nz, row)
				}
				w[row] += ws.colVal[t]
			}
		} else {
			row := int32(col - r.n)
			f.mark[row] = f.stamp
			w[row] = r.sigma[row]
			nz = append(nz, row)
		}
		for s := 0; s < step; s++ {
			pr := f.prow[s]
			if f.mark[pr] != f.stamp {
				continue
			}
			v := w[pr]
			if v == 0 {
				continue
			}
			f.ucIdx = append(f.ucIdx, int32(s))
			f.ucVal = append(f.ucVal, v)
			for t := f.lPtr[s]; t < f.lPtr[s+1]; t++ {
				row := f.lIdx[t]
				if f.mark[row] != f.stamp {
					f.mark[row] = f.stamp
					w[row] = 0
					nz = append(nz, row)
				}
				w[row] -= f.lVal[t] * v
			}
		}
		piv := int32(-1)
		pivAbs := singularPivotTol
		for _, row := range nz {
			if f.pinv[row] >= 0 {
				continue
			}
			if a := math.Abs(w[row]); a > pivAbs || (a == pivAbs && piv >= 0 && row < piv) {
				piv, pivAbs = row, a
			}
		}
		if piv < 0 {
			return false
		}
		d := w[piv]
		f.prow[step] = piv
		f.pinv[piv] = int32(step)
		f.qcol[step] = pos
		f.uDiag[step] = d
		inv := 1 / d
		for _, row := range nz {
			if f.pinv[row] >= 0 || row == piv {
				continue
			}
			if v := w[row]; v != 0 {
				f.lIdx = append(f.lIdx, row)
				f.lVal = append(f.lVal, v*inv)
			}
		}
		f.lPtr[step+1] = int32(len(f.lIdx))
		f.ucLen[step] = int32(len(f.ucIdx)) - f.ucPtr[step]
	}
	f.lPtr[0] = 0
	for t := range f.lIdx {
		f.lIdx[t] = f.pinv[f.lIdx[t]]
	}
	nnz := len(f.ucIdx)
	f.nnzU0 = nnz
	f.urIdx = grow(f.urIdx, nnz)
	f.urVal = grow(f.urVal, nnz)
	for i := 0; i < m; i++ {
		f.urLen[i] = 0
	}
	for _, r := range f.ucIdx {
		f.urLen[r]++
	}
	off := int32(0)
	cur := f.cnt[:m]
	for i := 0; i < m; i++ {
		f.urPtr[i] = off
		cur[i] = off
		off += f.urLen[i]
	}
	for k := 0; k < m; k++ {
		end := f.ucPtr[k] + f.ucLen[k]
		for t := f.ucPtr[k]; t < end; t++ {
			row := f.ucIdx[t]
			f.urIdx[cur[row]] = int32(k)
			f.urVal[cur[row]] = f.ucVal[t]
			cur[row]++
		}
	}
	for k := 0; k < m; k++ {
		f.qinv[f.qcol[k]] = int32(k)
		f.uord[k] = int32(k)
		f.upos[k] = int32(k)
	}
	f.clearEtas()
	return true
}

// sameF64 reports the first index where a and b differ under ==.
func sameF64(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return fmt.Errorf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

func sameInts[T int | int32 | uint8](what string, a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameTableau compares two tableaus entry by entry.
func sameTableau(a, b *tableau) error {
	return firstErr(
		sameInts("basis", a.basis, b.basis),
		sameF64("obj", a.obj, b.obj),
		sameF64("a", a.a, b.a),
		sameInts("pivots", []int{a.pivots}, []int{b.pivots}),
	)
}

// sameSolution compares two solutions field by field under ==.
func sameSolution(a, b *Solution) error {
	if a.Status != b.Status {
		return fmt.Errorf("status %v vs %v", a.Status, b.Status)
	}
	if a.Pivots != b.Pivots {
		return fmt.Errorf("pivots %d vs %d", a.Pivots, b.Pivots)
	}
	if a.Obj != b.Obj {
		return fmt.Errorf("obj %v vs %v", a.Obj, b.Obj)
	}
	return firstErr(sameF64("X", a.X, b.X), sameF64("Dual", a.Dual, b.Dual), sameF64("Ray", a.Ray, b.Ray))
}

// lockstep drives two tableaus of the same problem through the two-phase
// simplex side by side: prod pivots with the production kernel and ref
// with refPivot. Both must choose the same entering and leaving columns,
// and every checkEvery-th pivot (and at every phase boundary) they must
// agree entry by entry.
type lockstep struct {
	prod, ref  *tableau
	checkEvery int
}

func (l *lockstep) iterate(phase1 bool) (Status, error) {
	t := l.ref
	maxPivots := 200 * (t.m + t.width + 10)
	blandAfter := 20 * (t.m + t.width + 10)
	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return IterLimit, nil
		}
		if iter > 0 && iter%256 == 0 {
			l.prod.recomputeObjRow()
			l.ref.recomputeObjRow()
		}
		bland := iter >= blandAfter
		enter := t.chooseEntering(phase1, bland)
		if e := l.prod.chooseEntering(phase1, bland); e != enter {
			return 0, fmt.Errorf("pivot %d: entering %d vs reference %d", t.pivots, e, enter)
		}
		if enter < 0 {
			return Optimal, nil
		}
		leave := t.chooseLeaving(enter)
		if lv := l.prod.chooseLeaving(enter); lv != leave {
			return 0, fmt.Errorf("pivot %d: leaving %d vs reference %d", t.pivots, lv, leave)
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if err := l.pivot(leave, enter); err != nil {
			return 0, err
		}
	}
}

func (l *lockstep) pivot(leave, enter int) error {
	l.prod.pivot(leave, enter)
	refPivot(l.ref, leave, enter)
	if l.ref.pivots%l.checkEvery == 0 {
		if err := sameTableau(l.prod, l.ref); err != nil {
			return fmt.Errorf("after pivot %d: %w", l.ref.pivots, err)
		}
	}
	return nil
}

// pivotOutArtificials mirrors tableau.pivotOutArtificials in lockstep.
func (l *lockstep) pivotOutArtificials() error {
	t := l.ref
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.width {
			continue
		}
		for j := 0; j < t.width; j++ {
			if j >= t.n && t.eqMarker[j-t.n] {
				continue
			}
			if math.Abs(t.a[i*t.w1+j]) > 1e-7 {
				if err := l.pivot(i, j); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// solve mirrors tableau.solve in lockstep and returns the reference
// tableau's solution, with Dual/Ray over every tableau row.
func (l *lockstep) solve() (*Solution, error) {
	sol := &Solution{}
	phaseEnd := func() error { return sameTableau(l.prod, l.ref) }
	status, err := l.iterate(true)
	if err != nil {
		return nil, err
	}
	if err := phaseEnd(); err != nil {
		return nil, fmt.Errorf("end of phase 1: %w", err)
	}
	sol.Pivots += l.ref.pivots
	if status == IterLimit {
		sol.Status = IterLimit
		return sol, nil
	}
	if l.ref.phase1Obj() > feasTol {
		sol.Status = Infeasible
		l.ref.recomputeObjRow()
		sol.Ray = l.ref.farkasRay()
		return sol, nil
	}
	if err := l.pivotOutArtificials(); err != nil {
		return nil, err
	}
	l.prod.loadPhase2Costs()
	l.ref.loadPhase2Costs()
	status, err = l.iterate(false)
	if err != nil {
		return nil, err
	}
	if err := phaseEnd(); err != nil {
		return nil, fmt.Errorf("end of phase 2: %w", err)
	}
	sol.Pivots += l.ref.pivots
	switch status {
	case IterLimit, Unbounded:
		sol.Status = status
		return sol, nil
	}
	sol.Status = Optimal
	sol.X = l.ref.primal()
	sol.Obj = l.ref.objective()
	l.ref.recomputeObjRow()
	sol.Dual = l.ref.duals()
	return sol, nil
}

// checkColdOracle solves p cold with the production kernels (Solve, and
// SolveFrom into a fresh Basis) and with the reference pivot in lockstep,
// and requires identical tableaus, pivot counts, solutions and captured
// bases. It returns the status so callers can track coverage.
func checkColdOracle(p *Problem, checkEvery int) (Status, error) {
	q, lbRow, ubRow := p, []int(nil), []int(nil)
	if p.bounded() {
		q, lbRow, ubRow = p.boundExpansion()
	}
	l := &lockstep{prod: newTableau(q), ref: newTableau(q), checkEvery: checkEvery}
	want, err := l.solve()
	if err != nil {
		return 0, err
	}
	m := len(p.rows)
	if want.Dual != nil {
		want.Dual = want.Dual[:m]
	}
	if want.Ray != nil {
		want.Ray = want.Ray[:m]
	}

	got, _ := p.Solve()
	if err := sameSolution(got, want); err != nil {
		return 0, fmt.Errorf("Solve: %w", err)
	}
	var gotB, wantB Basis
	captured, _ := p.SolveFrom(&gotB)
	if err := sameSolution(captured, want); err != nil {
		return 0, fmt.Errorf("SolveFrom capture: %w", err)
	}
	if want.Status == Optimal {
		if p.bounded() {
			wantB.captureBounded(p, l.ref, lbRow, ubRow)
		} else {
			wantB.capture(l.ref)
		}
	}
	if err := firstErr(
		sameInts("Basis.cols", gotB.cols, wantB.cols),
		sameInts("Basis.stat", gotB.stat, wantB.stat),
		sameInts("Basis shape", []int{gotB.m, gotB.n}, []int{wantB.m, wantB.n}),
	); err != nil {
		return 0, err
	}
	return want.Status, nil
}

// sameLU compares every factor and permutation array of two sparse LU
// factorizations.
func sameLU(a, b *sparseLU) error {
	return firstErr(
		sameInts("m/nnzU0/nUpdates", []int{a.m, a.nnzU0, a.nUpdates}, []int{b.m, b.nnzU0, b.nUpdates}),
		sameInts("lPtr", a.lPtr, b.lPtr), sameInts("lIdx", a.lIdx, b.lIdx), sameF64("lVal", a.lVal, b.lVal),
		sameInts("ucPtr", a.ucPtr, b.ucPtr), sameInts("ucLen", a.ucLen, b.ucLen),
		sameInts("ucIdx", a.ucIdx, b.ucIdx), sameF64("ucVal", a.ucVal, b.ucVal),
		sameF64("uDiag", a.uDiag, b.uDiag),
		sameInts("urPtr", a.urPtr, b.urPtr), sameInts("urLen", a.urLen, b.urLen),
		sameInts("urIdx", a.urIdx, b.urIdx), sameF64("urVal", a.urVal, b.urVal),
		sameInts("prow", a.prow, b.prow), sameInts("pinv", a.pinv, b.pinv),
		sameInts("qcol", a.qcol, b.qcol), sameInts("qinv", a.qinv, b.qinv),
		sameInts("uord", a.uord, b.uord), sameInts("upos", a.upos, b.upos),
		sameInts("ftS", a.ftS, b.ftS), sameInts("ftPtr", a.ftPtr, b.ftPtr),
	)
}

// checkRefactorOracle factorizes the basic column set cols of p with the
// production refactor and with refRefactor, and requires the same verdict
// and identical factors — including a singular basis's partial factors.
func checkRefactorOracle(p *Problem, cols []int) (bool, error) {
	b := &Basis{m: len(p.rows), n: len(p.cost), cols: append([]int(nil), cols...)}
	r := b.prepare(p)
	var prod, ref sparseLU
	ok := prod.refactor(r)
	if refOK := refRefactor(&ref, r); ok != refOK {
		return false, fmt.Errorf("refactor verdict %v vs reference %v", ok, refOK)
	}
	return ok, sameLU(&prod, &ref)
}

// randomSparseLP builds a seeded sparse LP mixing LE/GE/EQ rows with
// right-hand sides of both signs. With bounded set, some variables get
// finite boxes, positive lower bounds or fixings. Costs of both signs and
// the random senses make optimal, infeasible and unbounded outcomes all
// common across seeds.
func randomSparseLP(seed int64, bounded bool) *Problem {
	r := rand.New(rand.NewSource(seed))
	n := 3 + r.Intn(40)
	m := 2 + r.Intn(40)
	p := New()
	for j := 0; j < n; j++ {
		c := 0.0
		if r.Intn(4) > 0 {
			c = math.Round((r.Float64()*4-1)*8) / 8
		}
		p.AddVar("x", c)
	}
	for i := 0; i < m; i++ {
		k := 1 + r.Intn(5)
		terms := make([]Term, 0, k)
		for t := 0; t < k; t++ {
			c := math.Round((r.Float64()*4-1.5)*4) / 4
			if c == 0 {
				c = 1
			}
			terms = append(terms, T(r.Intn(n), c))
		}
		rhs := math.Round((r.Float64()*20-4)*2) / 2
		p.AddConstraint(Sense(r.Intn(3)), rhs, terms...)
	}
	if bounded {
		for j := 0; j < n; j++ {
			switch r.Intn(5) {
			case 0:
				p.SetBounds(j, 0, float64(1+r.Intn(6)))
			case 1:
				lo := float64(r.Intn(3))
				p.SetBounds(j, lo, lo+float64(r.Intn(4)))
			case 2:
				p.SetBounds(j, float64(1+r.Intn(2)), math.Inf(1))
			}
		}
	}
	return p
}

// TestColdPivotMatchesFullWidthOracle runs the sparse-row pivot and the
// full-width reference in lockstep over seeded random sparse LPs, bounded
// and unbounded, comparing the whole tableau after every pivot and the
// solutions and captured bases at the end. Every outcome class must occur.
func TestColdPivotMatchesFullWidthOracle(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		seen := map[Status]int{}
		for seed := int64(0); seed < 400; seed++ {
			p := randomSparseLP(seed, bounded)
			st, err := checkColdOracle(p, 1)
			if err != nil {
				t.Fatalf("bounded=%v seed %d: %v", bounded, seed, err)
			}
			seen[st]++
		}
		for _, st := range []Status{Optimal, Infeasible, Unbounded} {
			if seen[st] == 0 {
				t.Errorf("bounded=%v: no %v instance among the seeds (%v)", bounded, st, seen)
			}
		}
	}
}

// TestRefactorMatchesStepScanOracle factorizes bases from three sources
// with the bitset walk and the O(step) scan: the optimal bases warm solve
// sequences pass through, random column sets (often singular, which
// compares the partial factors at the failing step), and the identity
// slack basis.
func TestRefactorMatchesStepScanOracle(t *testing.T) {
	singular, regular := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		p := randomSparseLP(seed, seed%2 == 1)
		m, n := p.NumRows(), p.NumVars()
		r := rand.New(rand.NewSource(seed))

		var b Basis
		for k := 0; k < 4; k++ {
			if _, err := p.SolveFrom(&b); err != nil {
				break
			}
			if b.Warm(p) {
				if _, err := checkRefactorOracle(p, b.cols); err != nil {
					t.Fatalf("seed %d solve %d: %v", seed, k, err)
				}
			}
			p.SetRHS(r.Intn(m), math.Round(r.Float64()*16))
		}

		for k := 0; k < 8; k++ {
			cols := r.Perm(n + m)[:m]
			ok, err := checkRefactorOracle(p, cols)
			if err != nil {
				t.Fatalf("seed %d random basis %d: %v", seed, k, err)
			}
			if ok {
				regular++
			} else {
				singular++
			}
		}
		slack := make([]int, m)
		for i := range slack {
			slack[i] = n + i
		}
		if _, err := checkRefactorOracle(p, slack); err != nil {
			t.Fatalf("seed %d slack basis: %v", seed, err)
		}
	}
	if singular == 0 || regular == 0 {
		t.Errorf("random bases: %d regular, %d singular; want both", regular, singular)
	}
}

// TestRefactorBitsetCrossesWords checks the bitset walk on bases wider
// than one 64-bit word, with fill that reaches back across word
// boundaries: a banded lower-triangular-plus-spikes structure whose
// eliminations touch steps far apart.
func TestRefactorBitsetCrossesWords(t *testing.T) {
	for _, m := range []int{63, 64, 65, 130, 200} {
		p := New()
		for j := 0; j < m; j++ {
			p.AddVar("x", 1)
		}
		r := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < m; i++ {
			terms := []Term{T(i, 2+r.Float64())}
			if i > 0 {
				terms = append(terms, T(i-1, r.Float64()-0.5))
			}
			for k := 0; k < 3; k++ {
				terms = append(terms, T(r.Intn(m), r.Float64()-0.5))
			}
			p.AddConstraint(LE, 1, terms...)
		}
		cols := make([]int, m)
		for i := range cols {
			cols[i] = i
		}
		if _, err := checkRefactorOracle(p, cols); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
	}
}
