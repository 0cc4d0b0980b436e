package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵢ·x ≤ bᵢ
	GE              // aᵢ·x ≥ bᵢ
	EQ              // aᵢ·x = bᵢ
)

// String returns the conventional mathematical symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status reports the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	Optimal    Status = iota // an optimal basic feasible solution was found
	Infeasible               // no feasible point exists; a Farkas ray is available
	Unbounded                // the objective decreases without bound
	IterLimit                // the pivot budget was exhausted (numerical trouble)
)

// String names the status for logs and test failures.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is a single coefficient applied to a variable in a constraint row.
type Term struct {
	Var  int     // variable index returned by AddVar
	Coef float64 // coefficient multiplying the variable
}

// T is shorthand for constructing a Term.
func T(v int, coef float64) Term { return Term{Var: v, Coef: coef} }

type row struct {
	terms []Term
	sense Sense
	rhs   float64
	name  string
}

// Problem is a linear program under construction. The zero value is not
// usable; call New.
type Problem struct {
	cost  []float64
	names []string
	rows  []row
	// lo/up are the variable bounds, materialized lazily by the first
	// SetBounds call; nil means every variable keeps the default [0, +∞)
	// range. Invariant: 0 ≤ lo[j] ≤ up[j], with up[j] = +Inf for unbounded.
	lo, up []float64
	// rev counts structural mutations (AddVar, AddConstraint). SetRHS,
	// SetCost and SetBounds deliberately do not advance it: a Basis
	// workspace caches the problem's sparse matrix keyed on (pointer, rev),
	// and RHS/cost/bound rewrites — the warm-start access patterns — must
	// keep that cache valid. (Branch-and-bound rewrites bounds per node.)
	rev int
}

// New returns an empty minimization problem.
func New() *Problem { return &Problem{} }

// AddVar adds a variable with the given objective cost and returns its
// index. All variables are implicitly bounded below by zero.
func (p *Problem) AddVar(name string, cost float64) int {
	p.cost = append(p.cost, cost)
	p.names = append(p.names, name)
	if p.lo != nil {
		p.lo = append(p.lo, 0)
		p.up = append(p.up, math.Inf(1))
	}
	p.rev++
	return len(p.cost) - 1
}

// SetBounds restricts variable v to the range [lo, up]. Bounds are handled
// natively by the bounded-variable simplex — no constraint rows are added —
// so rewriting them between solves (the branch-and-bound fixing pattern) is
// as cheap as SetRHS and keeps every warm-start cache valid. lo must satisfy
// 0 ≤ lo ≤ up; use math.Inf(1) for an unbounded upper range. lo == up fixes
// the variable.
func (p *Problem) SetBounds(v int, lo, up float64) {
	if lo < 0 || up < lo || math.IsNaN(lo) || math.IsNaN(up) {
		panic(fmt.Sprintf("lp: SetBounds(%d, %g, %g): need 0 <= lo <= up", v, lo, up))
	}
	if p.lo == nil {
		p.lo = make([]float64, len(p.cost))
		p.up = make([]float64, len(p.cost))
		for j := range p.up {
			p.up[j] = math.Inf(1)
		}
	}
	p.lo[v] = lo
	p.up[v] = up
}

// Bounds returns the [lo, up] range of variable v.
func (p *Problem) Bounds(v int) (lo, up float64) {
	if p.lo == nil {
		return 0, math.Inf(1)
	}
	return p.lo[v], p.up[v]
}

// bounded reports whether any variable carries a non-default bound range.
// The solver paths stay byte-identical to their pre-bounds behavior when
// this is false.
func (p *Problem) bounded() bool { return p.lo != nil }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// SetCost overwrites the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.cost[v] = cost }

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.cost[v] }

// VarName returns the name given to variable v at AddVar time.
func (p *Problem) VarName(v int) string { return p.names[v] }

// AddConstraint appends the row  Σ terms {sense} rhs  and returns its index.
// Terms referencing the same variable are accumulated.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) int {
	return p.AddNamedConstraint("", sense, rhs, terms...)
}

// AddNamedConstraint is AddConstraint with a diagnostic row name.
func (p *Problem) AddNamedConstraint(name string, sense Sense, rhs float64, terms ...Term) int {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, sense: sense, rhs: rhs, name: name})
	p.rev++
	return len(p.rows) - 1
}

// SetRHS overwrites the right-hand side of row i. This lets callers (the
// Benders slave, branch-and-bound nodes) reuse one problem structure across
// many solves that differ only in their right-hand sides.
func (p *Problem) SetRHS(i int, rhs float64) { p.rows[i].rhs = rhs }

// RHS returns the right-hand side of row i.
func (p *Problem) RHS(i int) float64 { return p.rows[i].rhs }

// RowSense returns the sense of row i.
func (p *Problem) RowSense(i int) Sense { return p.rows[i].sense }

// RowTerms returns the terms of row i. The returned slice is the problem's
// backing storage; callers must treat it as read-only. It exists so callers
// holding a dual vector from an earlier solve (the Benders cut pool) can
// check it against the current costs without rebuilding the matrix.
func (p *Problem) RowTerms(i int) []Term { return p.rows[i].terms }

// Clone returns a deep copy of the problem, sharing nothing with p.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		cost:  append([]float64(nil), p.cost...),
		names: append([]string(nil), p.names...),
		rows:  make([]row, len(p.rows)),
		lo:    append([]float64(nil), p.lo...),
		up:    append([]float64(nil), p.up...),
	}
	for i, r := range p.rows {
		q.rows[i] = row{
			terms: append([]Term(nil), r.terms...),
			sense: r.sense,
			rhs:   r.rhs,
			name:  r.name,
		}
	}
	return q
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Obj is the optimal objective value when Status == Optimal.
	Obj float64
	// X holds the optimal variable values when Status == Optimal.
	X []float64
	// Dual holds one dual value per constraint row when Status == Optimal,
	// oriented so that Obj == Σᵢ Dual[i]·rhs[i] (strong duality; all
	// variable bounds other than x ≥ 0 are explicit rows).
	Dual []float64
	// Ray holds a Farkas infeasibility certificate per constraint row when
	// Status == Infeasible: any rhs vector r for which Σᵢ Ray[i]·r[i] > 0
	// is infeasible for this constraint matrix. It is the dual extreme ray
	// used for Benders feasibility cuts.
	Ray []float64
	// Pivots is the total simplex pivot count, for diagnostics.
	Pivots int
}

// Numerical tolerances. They are deliberately loose enough to survive the
// mildly ill-conditioned bases that big-M rows produce, and tight enough
// that the cross-validation tests (Benders vs direct MILP) agree to 1e-6.
const (
	pivotTol = 1e-9 // smallest pivot magnitude accepted
	costTol  = 1e-9 // reduced-cost optimality tolerance
	feasTol  = 1e-7 // feasibility tolerance on row activity
)

// ErrIterLimit is returned when the simplex exceeds its pivot budget.
var ErrIterLimit = errors.New("lp: simplex iteration limit exceeded")

// Solve runs the two-phase simplex and returns the solution. It never
// mutates the problem, so a Problem may be solved repeatedly (for example
// with different right-hand sides between calls). For solve sequences that
// perturb RHS or costs between calls, SolveFrom re-enters from the previous
// basis instead of restarting from scratch.
func (p *Problem) Solve() (*Solution, error) { return p.solveCold(nil) }

// solveCold is the two-phase tableau path. When cap is non-nil, the final
// basis is captured into it so a later SolveFrom can warm-start; outcomes
// without a usable basis (infeasibility, iteration limit, unboundedness)
// reset it. The tableau itself only understands x ≥ 0, so bounded problems
// are solved through their bound-row expansion (see boundExpansion) and the
// result is mapped back.
//
// The tableau is allocated per solve and dropped on return: a Basis keeps
// only its basic column set, never the dense working state of the solve
// that produced it.
func (p *Problem) solveCold(cap *Basis) (*Solution, error) {
	q, lbRow, ubRow := p, []int(nil), []int(nil)
	if p.bounded() {
		q, lbRow, ubRow = p.boundExpansion()
	}
	t := newTableau(q)
	sol, err := t.solve()
	m := len(p.rows)
	switch sol.Status {
	case Optimal:
		sol.Dual = sol.Dual[:m]
		if cap != nil && p.bounded() {
			cap.captureBounded(p, t, lbRow, ubRow)
		} else if cap != nil {
			cap.capture(t)
		}
	case Infeasible:
		sol.Ray = sol.Ray[:m]
		fallthrough
	default:
		// No outcome but Optimal leaves a basis worth re-entering from. In
		// particular a phase-1-terminal basis is almost never dual feasible
		// for the real costs, so capturing it would make every later warm
		// attempt factorize B⁻¹ only to bail to cold. Warm chains start
		// from optimal (or warm-infeasible) bases only.
		if cap != nil {
			cap.Reset()
		}
	}
	return sol, err
}

// boundExpansion returns the x ≥ 0 problem the tableau solves for a
// bounded p: the bounds become explicit rows (x_j ≥ lo for lo > 0, x_j ≤ up
// for finite up) appended after p's rows, and lbRow/ubRow record each
// variable's bound rows (−1 where it has none). Structural columns, costs
// and the original rows are shared read-only with p; only the bound rows
// are fresh. Dual and Ray are truncated to the original rows afterwards:
// bound-row duals live on as nonbasic reduced costs in the bounded-variable
// warm path (strong duality then reads Obj = Σ Dual·rhs + Σ_{nonbasic j}
// d_j·x_j), and an infeasibility Ray is a box-Farkas certificate — Σ
// Ray·rhs exceeds the slack the variable boxes can absorb (see
// revised.verifyRay).
//
// When a Basis captures the solve, the expanded basis is folded into a
// bounded-variable basis over the original rows: a structural variable is
// basic iff it is basic in the expansion with none of its bound rows tight,
// and every nonbasic structural records which bound it sits at. The fold
// can land on a singular column set in degenerate corners; the next warm
// attempt then detects that and falls back cold, so it costs performance,
// never correctness.
func (p *Problem) boundExpansion() (q *Problem, lbRow, ubRow []int) {
	m, n := len(p.rows), len(p.cost)
	q = &Problem{cost: p.cost, names: p.names}
	q.rows = make([]row, m, m+2*n)
	copy(q.rows, p.rows)
	lbRow = make([]int, n)
	ubRow = make([]int, n)
	for j := range lbRow {
		lbRow[j], ubRow[j] = -1, -1
	}
	for j := 0; j < n; j++ {
		if p.lo[j] > 0 {
			lbRow[j] = len(q.rows)
			q.rows = append(q.rows, row{terms: []Term{{Var: j, Coef: 1}}, sense: GE, rhs: p.lo[j]})
		}
	}
	for j := 0; j < n; j++ {
		if !math.IsInf(p.up[j], 1) {
			ubRow[j] = len(q.rows)
			q.rows = append(q.rows, row{terms: []Term{{Var: j, Coef: 1}}, sense: LE, rhs: p.up[j]})
		}
	}
	return q, lbRow, ubRow
}

// solve runs both simplex phases on a fresh tableau. Dual and Ray cover
// every tableau row; the caller truncates them to the problem's own rows.
func (t *tableau) solve() (*Solution, error) {
	sol := &Solution{}

	// Phase 1: drive the artificial variables to zero.
	status := t.iterate(true)
	sol.Pivots += t.pivots
	if status == IterLimit {
		sol.Status = IterLimit
		return sol, ErrIterLimit
	}
	if t.phase1Obj() > feasTol {
		sol.Status = Infeasible
		t.recomputeObjRow() // exact reduced costs for the certificate
		sol.Ray = t.farkasRay()
		return sol, nil
	}
	t.pivotOutArtificials()

	// Phase 2: optimize the true objective from the feasible basis.
	t.loadPhase2Costs()
	status = t.iterate(false)
	sol.Pivots += t.pivots
	switch status {
	case IterLimit:
		sol.Status = IterLimit
		return sol, ErrIterLimit
	case Unbounded:
		sol.Status = Unbounded
		return sol, nil
	}

	sol.Status = Optimal
	sol.X = t.primal()
	sol.Obj = t.objective()
	t.recomputeObjRow() // exact reduced costs for the duals
	sol.Dual = t.duals()
	return sol, nil
}

// tableau is the dense simplex working state. Columns are laid out as
// [structural 0..n) | markers n..n+m) | rhs]. Every row owns exactly one
// marker column: the slack/surplus for inequality rows (free to enter the
// basis) or a pinned pseudo-slack for equality rows (never enters, exists
// only so duals and Farkas rays can be read from its reduced cost).
// Rows whose marker cannot serve as the initial basic variable start from a
// *virtual* artificial: basis[i] = width+i. Virtual columns are never
// stored or updated — they can never re-enter — which keeps the tableau
// narrow; phase 1 only has work to do on rows that actually start virtual.
//
// The matrix is one contiguous row-major slice with stride width+1 (the
// last column is the rhs): flat storage keeps the pivot loops on sequential
// memory. Every buffer belongs to one solve and is dropped with it.
type tableau struct {
	p *Problem

	m, n  int // rows, structural columns
	width int // total stored columns excluding rhs: n + m
	w1    int // row stride: width + 1

	a     []float64 // m rows × w1 columns, row-major; a[i*w1+width] is rhs
	obj   []float64 // reduced-cost row, width+1 (last is -objective value)
	cost  []float64 // cost vector over stored columns (phase-dependent)
	basis []int     // basis[i] = column basic in row i; width+r = virtual artificial of row r

	markerSign []float64 // ±1 coefficient of each row's marker column
	eqMarker   []bool    // true: marker is pinned (EQ row), never enters
	flip       []float64
	nVirtual   int // rows starting from a virtual artificial

	cb []float64 // recomputeObjRow scratch

	// Pivot-row scratch: the nonzero columns of the scaled pivot row and
	// their values, gathered once per pivot.
	nzCol []int
	nzVal []float64

	pivots   int
	inPhase1 bool
}

// row returns row i of the matrix including its rhs entry.
func (t *tableau) row(i int) []float64 { return t.a[i*t.w1 : (i+1)*t.w1 : (i+1)*t.w1] }

func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	n := len(p.cost)

	t := &tableau{p: p, m: m, n: n, width: n + m, w1: n + m + 1}
	t.markerSign = make([]float64, m)
	t.eqMarker = make([]bool, m)
	t.flip = make([]float64, m)
	t.basis = make([]int, m)
	t.cost = make([]float64, t.width)
	t.a = make([]float64, m*t.w1)
	t.obj = make([]float64, t.w1)
	t.cb = make([]float64, m)
	t.nzCol = make([]int, 0, t.w1)
	t.nzVal = make([]float64, 0, t.w1)

	for i := range p.rows {
		r := &p.rows[i]
		ri := t.row(i)
		// Normalize so rhs ≥ 0; remember the sign flip to restore the
		// caller's row orientation in duals and rays.
		f := 1.0
		if r.rhs < 0 {
			f = -1.0
		}
		t.flip[i] = f
		for _, tm := range r.terms {
			ri[tm.Var] += f * tm.Coef
		}
		ri[t.width] = f * r.rhs

		marker := n + i
		switch r.sense {
		case LE:
			t.markerSign[i] = f
		case GE:
			t.markerSign[i] = -f
		case EQ:
			t.markerSign[i] = 1
			t.eqMarker[i] = true
		}
		ri[marker] = t.markerSign[i]

		// Initial basis: the marker when it forms a feasible identity
		// column (+1 with non-negative rhs), a virtual artificial else.
		if t.markerSign[i] > 0 && !t.eqMarker[i] {
			t.basis[i] = marker
		} else {
			t.basis[i] = t.width + i
			t.nVirtual++
		}
	}
	t.inPhase1 = true

	// Phase-1 reduced costs: cost 1 on virtual artificials only, so
	// obj[j] = −Σ_{i virtual} a[i][j].
	for i := 0; i < m; i++ {
		if t.basis[i] < t.width {
			continue
		}
		ri := t.row(i)
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= ri[j]
		}
	}
	return t
}

// costOf returns the current-phase cost of a column, including virtual
// artificials.
func (t *tableau) costOf(col int) float64 {
	if col >= t.width {
		if t.inPhase1 {
			return 1
		}
		return 0
	}
	return t.cost[col]
}

// phase1Obj returns the current phase-1 objective (sum of artificials).
func (t *tableau) phase1Obj() float64 { return -t.obj[t.width] }

// objective returns the current phase-2 objective value.
func (t *tableau) objective() float64 { return -t.obj[t.width] }

// iterate pivots until optimal, unbounded, or the budget runs out.
func (t *tableau) iterate(phase1 bool) Status {
	// Generous budget: simplex is expected to finish in O(m+n) pivots in
	// practice; Bland's rule after the threshold guarantees termination.
	maxPivots := 200 * (t.m + t.width + 10)
	blandAfter := 20 * (t.m + t.width + 10)

	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return IterLimit
		}
		// Incremental updates to the reduced-cost row accumulate floating
		// point drift over long degenerate runs; refactorize periodically
		// so stale ±1e-10 noise cannot masquerade as negative reduced
		// costs and stall convergence.
		if iter > 0 && iter%256 == 0 {
			t.recomputeObjRow()
		}
		useBland := iter >= blandAfter

		enter := t.chooseEntering(phase1, useBland)
		if enter < 0 {
			return Optimal
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// chooseEntering picks a column with negative reduced cost, or -1 at
// optimality. Pinned equality markers never enter; virtual artificials are
// not stored and therefore cannot.
func (t *tableau) chooseEntering(phase1, bland bool) int {
	if bland {
		for j := 0; j < t.width; j++ {
			if t.obj[j] < -costTol && !(j >= t.n && t.eqMarker[j-t.n]) {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < t.width; j++ {
		if t.obj[j] < bestVal && !(j >= t.n && t.eqMarker[j-t.n]) {
			best, bestVal = j, t.obj[j]
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test on the entering column,
// breaking ties by smallest basis column to curb cycling.
func (t *tableau) chooseLeaving(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aij := t.a[i*t.w1+enter]
		if aij <= pivotTol {
			continue
		}
		ratio := t.a[i*t.w1+t.width] / aij
		if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
			bestRatio = ratio
			leave = i
		}
	}
	return leave
}

// pivot makes column enter basic in row leave. Pivot rows are sparse (on
// the metro Benders masters about 2% of the columns are nonzero), so the
// scaled row's nonzeros are gathered once and every other row, and the
// reduced-cost row, is updated at those columns only. A skipped column
// would compute x −= f·0, which leaves x unchanged except possibly for the
// sign of a zero, so every value matches a full-width sweep under ==.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	rowL := t.row(leave)
	inv := 1 / rowL[enter]
	nzCol, nzVal := t.nzCol[:0], t.nzVal[:0]
	for j := 0; j <= t.width; j++ {
		v := rowL[j] * inv
		rowL[j] = v
		if v != 0 {
			nzCol = append(nzCol, j)
			nzVal = append(nzVal, v)
		}
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
		for k, j := range nzCol {
			ri[j] -= f * nzVal[k]
		}
		ri[enter] = 0 // kill roundoff residue exactly
	}
	f := t.obj[enter]
	if f != 0 {
		for k, j := range nzCol {
			t.obj[j] -= f * nzVal[k]
		}
		t.obj[enter] = 0
	}
	t.basis[leave] = enter
}

// pivotOutArtificials removes zero-level virtual artificials from the
// basis where possible; rows where no stored pivot column exists are
// redundant and keep their virtual basic at level zero.
func (t *tableau) pivotOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.width {
			continue
		}
		for j := 0; j < t.width; j++ {
			if j >= t.n && t.eqMarker[j-t.n] {
				continue
			}
			if math.Abs(t.a[i*t.w1+j]) > 1e-7 {
				t.pivot(i, j)
				break
			}
		}
	}
}

// loadPhase2Costs swaps in the true objective for the current basis.
func (t *tableau) loadPhase2Costs() {
	t.inPhase1 = false
	for j := range t.cost {
		t.cost[j] = 0
	}
	copy(t.cost, t.p.cost)
	t.recomputeObjRow()
}

// recomputeObjRow rebuilds the reduced-cost row exactly from the current
// phase costs and tableau, clearing accumulated pivot roundoff. Row-major
// accumulation keeps the pass sequential over the flat matrix.
func (t *tableau) recomputeObjRow() {
	cb := t.cb[:t.m]
	for i := 0; i < t.m; i++ {
		cb[i] = t.costOf(t.basis[i])
	}
	for j := 0; j < t.width; j++ {
		t.obj[j] = t.cost[j]
	}
	t.obj[t.width] = 0
	for i := 0; i < t.m; i++ {
		c := cb[i]
		if c == 0 {
			continue
		}
		ri := t.row(i)
		for j := 0; j <= t.width; j++ {
			t.obj[j] -= c * ri[j]
		}
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.width {
			t.obj[t.basis[i]] = 0
		}
	}
}

// primal extracts the structural variable values from the basis.
func (t *tableau) primal() []float64 {
	x := make([]float64, t.n)
	for i, b := range t.basis {
		if b < t.n {
			x[b] = t.a[i*t.w1+t.width]
		}
	}
	return x
}

// duals reads y = c_Bᵀ·B⁻¹ off the marker columns' reduced costs: row r's
// marker has cost 0 and column σ_r·e_r, so its reduced cost is −σ_r·y_r.
// Output is in the caller's row orientation.
func (t *tableau) duals() []float64 {
	y := make([]float64, t.m)
	for r := 0; r < t.m; r++ {
		y[r] = -t.obj[t.n+r] * t.markerSign[r] * t.flip[r]
	}
	return y
}

// farkasRay returns f = c₁_Bᵀ·B⁻¹ at phase-1 termination with positive
// objective, read off the marker reduced costs of the phase-1 objective
// row: the certificate satisfies f·b > 0 while fᵀA ≤ 0 over every column,
// proving Ax = b, x ≥ 0 infeasible. Oriented to the caller's rows.
func (t *tableau) farkasRay() []float64 {
	f := make([]float64, t.m)
	for r := 0; r < t.m; r++ {
		f[r] = -t.obj[t.n+r] * t.markerSign[r] * t.flip[r]
	}
	return f
}
