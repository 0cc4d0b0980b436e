package admission

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// DomainSolver builds one domain's solver and solves its rounds. It holds
// the domain's normalized config, the k-shortest path sets of the base
// network, the algorithm's solver (a warm core.BendersSession for
// "benders"), and the live network: the base with the domain's capacity
// events folded in. It is the one place a DomainConfig.Algorithm becomes a
// core solver. The engine's domains solve through it, and so do cluster
// workers (internal/cluster), so a round decided in-process and the same
// round decided on a worker assemble the identical instance.
//
// Solve is safe for concurrent use; calls are serialized. The engine
// already serializes a domain's rounds, but a cluster worker can receive a
// domain's next round while it is still solving one the coordinator gave
// up on after DispatchTimeout.
type DomainSolver struct {
	cfg   DomainConfig
	paths [][][]topology.Path
	solve func(*core.Instance) (*core.Decision, error)

	mu sync.Mutex
	// live is cfg.Net with the first nEvents capacity events folded in.
	// Event lists only grow, so the count is a sufficient cache key, and
	// the pointer changes exactly when the list grows: the warm session
	// treats a new pointer as a shape change and rebuilds cold, by design.
	live    *topology.Network
	nEvents int
}

// NewDomainSolver builds a domain's solver from a config that is already
// normalized (DomainConfig.Normalized). Its values are used verbatim and
// never re-defaulted — BigM 0 means hard capacity here, not the default —
// so a config normalized once and shipped to a worker builds the solver
// the engine builds in-process.
func NewDomainSolver(dc DomainConfig) (*DomainSolver, error) {
	if dc.Net == nil {
		return nil, fmt.Errorf("admission: domain needs a topology")
	}
	s := &DomainSolver{cfg: dc, live: dc.Net}
	switch dc.Algorithm {
	case "benders":
		s.solve = core.NewBendersSession(dc.Benders).Solve
	case "direct", "no-overbooking":
		s.solve = core.SolveDirect
	case "kac":
		s.solve = func(inst *core.Instance) (*core.Decision, error) {
			return core.SolveKAC(inst, core.KACOptions{})
		}
	default:
		return nil, fmt.Errorf("admission: unknown algorithm %q", dc.Algorithm)
	}
	s.paths = dc.Net.Paths(dc.KPaths)
	return s, nil
}

// Solve decides one round: tenants in canonical order (committed slices
// first) against the base network with events — the domain's whole
// accumulated capacity-event list — folded in.
func (s *DomainSolver) Solve(events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(events) != s.nEvents {
		net, err := topology.Apply(s.cfg.Net, events)
		if err != nil {
			return nil, err
		}
		s.live, s.nEvents = net, len(events)
	}
	return s.solve(&core.Instance{
		Net: s.live, Paths: s.paths, Tenants: tenants,
		Overbook: s.cfg.overbook(), BigM: s.cfg.BigM, RiskHorizon: s.cfg.RiskHorizon,
	})
}

// adopt installs the live network the engine derived (and logged) for a
// grown event list, so the next Solve does not derive it again.
func (s *DomainSolver) adopt(net *topology.Network, nEvents int) {
	s.mu.Lock()
	s.live, s.nEvents = net, nEvents
	s.mu.Unlock()
}
