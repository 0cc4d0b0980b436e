package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/reopt"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/yield"
)

// swapLog is the durability seam between the engine/controller and the
// WAL: a RoundLog + StepLog whose backing store can be installed late. A
// standby replays the leader's log with no store of its own (appends made
// by the replay code paths drop here — they re-describe what is being
// replayed), then gains the real store at promotion. The leader uses it
// too, with the store set before the engine starts, so both roles run the
// identical logging plumbing.
type swapLog struct {
	mu sync.Mutex
	st *wal.Store
}

func (l *swapLog) set(st *wal.Store) {
	l.mu.Lock()
	l.st = st
	l.mu.Unlock()
}

func (l *swapLog) store() *wal.Store {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

func (l *swapLog) AppendRound(domain string, seq uint64, batch []admission.Request) error {
	if st := l.store(); st != nil {
		return st.AppendRound(domain, seq, batch)
	}
	return nil
}

func (l *swapLog) AppendForecasts(domain string, ups []admission.ForecastUpdate) error {
	if st := l.store(); st != nil {
		return st.AppendForecasts(domain, ups)
	}
	return nil
}

func (l *swapLog) AppendAdvance(domain string) error {
	if st := l.store(); st != nil {
		return st.AppendAdvance(domain)
	}
	return nil
}

func (l *swapLog) AppendTopology(domain string, events []topology.Event) error {
	if st := l.store(); st != nil {
		return st.AppendTopology(domain, events)
	}
	return nil
}

func (l *swapLog) AppendHandover(fromDomain, toDomain, name string) error {
	if st := l.store(); st != nil {
		return st.AppendHandover(fromDomain, toDomain, name)
	}
	return nil
}

func (l *swapLog) SyncRound() error {
	if st := l.store(); st != nil {
		return st.SyncRound()
	}
	return nil
}

func (l *swapLog) AppendSettle(domain string, epoch int, entries []yield.Entry) error {
	if st := l.store(); st != nil {
		return st.AppendSettle(domain, epoch, entries)
	}
	return nil
}

func (l *swapLog) AppendObserve(domain string, epoch int, alive []string, peaks []reopt.ObservedPeak) error {
	if st := l.store(); st != nil {
		return st.AppendObserve(domain, epoch, alive, peaks)
	}
	return nil
}

// Standby is a warm replica of a leader orchestrator: it tails the
// leader's WAL directory read-only and continuously replays every
// committed record through the same engine/controller code paths crash
// recovery uses — so its state is bit-identical to what a fresh recovery
// of that log would build, at every instant. When the leader dies,
// Promote turns the replica into a serving Orchestrator without replaying
// the log from scratch: it drains the tail, aborts the dead leader's
// uncommitted residue, completes a trailing half-step, and starts the
// engine.
//
// The replica's Executor is always nil while tailing (replay must not
// depend on workers having rejoined — same rule as crash recovery); the
// promoted orchestrator's executor arrives as a Promote argument, carrying
// the new leader's fencing epoch.
type Standby struct {
	cfg OrchestratorConfig
	o   *Orchestrator
	lg  *swapLog

	mu       sync.Mutex
	tail     *wal.Tailer
	replayer *wal.Replayer
	promoted bool
	rebuilds int
}

// NewStandby builds a standby over cfg.DataDir (required — it is the
// leader's directory). The config should otherwise equal the leader's;
// Executor is ignored until Promote.
func NewStandby(cfg OrchestratorConfig) (*Standby, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("ctrlplane: a standby needs the leader's DataDir")
	}
	cfg.Executor = nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Standby{cfg: cfg, lg: &swapLog{}} // no store while tailing: replay-path appends drop
	if err := s.bootstrap(); err != nil {
		return nil, err
	}
	return s, nil
}

// bootstrap builds a fresh replica and a tail over the leader's directory,
// restored from the newest snapshot there and resuming the tail at its LSN.
func (s *Standby) bootstrap() error {
	o, err := buildCore(s.cfg, s.lg)
	if err != nil {
		return err
	}
	tail, err := wal.OpenTailer(s.cfg.DataDir)
	if err != nil {
		return err
	}
	replayer, err := wal.NewReplayer(wal.Target{Engine: o.eng, Controller: o.loop, Ledger: o.ledger})
	if err == nil {
		err = replayer.Bootstrap(tail.Snapshot())
	}
	if err != nil {
		tail.Close()
		return err
	}
	s.o, s.tail, s.replayer = o, tail, replayer
	return nil
}

// Poll ingests every record that has become visible since the last call
// and returns how many were applied or parked. A compaction gap (the
// leader snapshotted and removed segments the tail had not read — it can
// outrun a polling replica wholesale when a burst of rounds, a snapshot
// and its compaction all land inside one poll interval) is healed in
// place: the replica discards its state and re-bootstraps from the
// leader's newest snapshot, exactly what restarting the standby process
// would do. Other errors are permanent (corruption, replay divergence):
// the standby must be rebuilt.
func (s *Standby) Poll() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, fmt.Errorf("ctrlplane: standby already promoted")
	}
	return s.pollLocked()
}

func (s *Standby) pollLocked() (int, error) {
	n := 0
	for {
		recs, err := s.tail.Poll()
		for _, pr := range recs {
			if ierr := s.replayer.Ingest(pr); ierr != nil {
				return n, ierr
			}
			n++
		}
		if !errors.Is(err, wal.ErrTailGap) {
			return n, err
		}
		stuck := s.tail.NextLSN()
		if rerr := s.rebuildLocked(); rerr != nil {
			return n, fmt.Errorf("ctrlplane: standby re-bootstrap after compaction gap: %w", rerr)
		}
		if s.tail.NextLSN() <= stuck {
			// No newer snapshot is readable (compaction without a usable
			// snapshot would be a writer bug, or every snapshot is torn):
			// rebuilding again would land on the same gap forever.
			return n, err
		}
		n = 0 // records applied to the discarded replica don't count
	}
}

// rebuildLocked discards the replica's engine/controller/ledger state and
// re-bootstraps a fresh one from the newest snapshot in the leader's
// directory.
func (s *Standby) rebuildLocked() error {
	s.tail.Close()
	if err := s.bootstrap(); err != nil {
		return err
	}
	s.rebuilds++
	return nil
}

// Rebuilds reports how many times the replica healed a compaction gap by
// re-bootstrapping from a snapshot (0 when it tailed the whole log live).
func (s *Standby) Rebuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilds
}

// Run polls on a cadence until ctx ends, a permanent error occurs, or the
// standby is promoted (which returns nil).
func (s *Standby) Run(ctx context.Context, every time.Duration) error {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		s.mu.Lock()
		if s.promoted {
			s.mu.Unlock()
			return nil
		}
		_, err := s.pollLocked()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ctrlplane: standby tail: %w", err)
		}
	}
}

// Progress reports how far the replica has replayed: the next LSN it
// expects and the rounds applied so far.
func (s *Standby) Progress() (lsn uint64, rounds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayer.SeenLSN(), s.replayer.Rounds()
}

// Promote turns the replica into the serving orchestrator. Call it only
// after taking the leader lease: the old leader must be dead or fenced
// (exec should carry the new lease's epoch, fence its Check).
//
// The sequence mirrors crash recovery exactly, minus the bulk replay the
// standby already did: drain the last visible records, open the directory
// for writing (repairing any torn tail), feed the replayer whatever the
// tail had not seen, abort the dead leader's uncommitted step prefix,
// complete a trailing round-without-advance (re-logged), rebuild the REST
// registry, install the executor, start the engine. The returned
// Orchestrator is bit-identical to one that had served the whole log
// uninterrupted.
func (s *Standby) Promote(exec admission.Executor, fence func() error) (*Orchestrator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, fmt.Errorf("ctrlplane: standby already promoted")
	}
	// Final drain: the writer is gone, so one Poll sees everything that
	// will ever be visible.
	if _, err := s.pollLocked(); err != nil {
		return nil, fmt.Errorf("ctrlplane: promote: draining tail: %w", err)
	}
	s.tail.Close()

	wstore, recovered, err := wal.Open(wal.Options{Dir: s.cfg.DataDir, Fence: fence})
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: promote: %w", err)
	}
	fail := func(e error) (*Orchestrator, error) {
		wstore.Close()
		return nil, e
	}
	// Ingest whatever Open sees that the tail had not delivered (normally
	// nothing; Ingest skips below the replayer's high-water mark).
	s.lg.set(wstore)
	if err := s.replayer.IngestAll(wstore, recovered.Records); err != nil {
		return fail(fmt.Errorf("ctrlplane: promote: %w", err))
	}
	rep, err := s.replayer.Finalize(wstore)
	if err != nil {
		return fail(fmt.Errorf("ctrlplane: promote: %w", err))
	}

	o := s.o
	o.wal = wstore
	o.recovery = rep
	o.epoch = o.loop.Epoch()
	if err := o.adoptCommitted(); err != nil {
		return fail(err)
	}
	if exec != nil {
		if err := o.eng.SetExecutor(admission.DefaultDomain, exec); err != nil {
			return fail(err)
		}
	}
	if err := o.eng.Start(); err != nil {
		return fail(err)
	}
	s.promoted = true
	return o, nil
}

// Close releases the standby's tail without promoting. No-op after
// Promote (the orchestrator owns the resources then).
func (s *Standby) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil
	}
	s.promoted = true // poison further Poll/Promote
	return s.tail.Close()
}

// Abort simulates a crash for tests: the engine stops without a drain and
// the WAL drops its unsynced buffer — exactly what SIGKILL leaves behind.
// The orchestrator is unusable afterwards.
func (o *Orchestrator) Abort() {
	o.eng.Stop()
	if o.wal != nil {
		o.wal.Abort()
	}
}
