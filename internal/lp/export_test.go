package lp

// Hooks for the external test package (metro_test.go), which builds its
// problems through internal/core and so cannot live inside package lp.

// CheckColdOracle is checkColdOracle for external tests.
func CheckColdOracle(p *Problem, checkEvery int) (Status, error) {
	return checkColdOracle(p, checkEvery)
}

// CheckRefactorOracle is checkRefactorOracle on the basic column set of a
// Basis that a SolveFrom on p captured.
func CheckRefactorOracle(p *Problem, b *Basis) (bool, error) {
	return checkRefactorOracle(p, b.cols)
}

// LURefactorer refactorizes one fixed basis with the production sparse LU
// engine, reusing its storage across calls the way a warm Basis does.
type LURefactorer struct {
	r *revised
	f sparseLU
}

// NewLURefactorer binds a refactorer to the basis a SolveFrom on p
// captured into b.
func NewLURefactorer(p *Problem, b *Basis) *LURefactorer {
	return &LURefactorer{r: b.prepare(p)}
}

// Refactor rebuilds the factorization; false means the basis is singular.
func (l *LURefactorer) Refactor() bool { return l.f.refactor(l.r) }

// Rows returns the basis dimension.
func (l *LURefactorer) Rows() int { return l.r.m }
