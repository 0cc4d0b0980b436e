package wal

import (
	"fmt"
	"sort"
)

// Replayer is the one replay path: crash recovery (Recover) feeds it the
// whole log at once, a standby feeds it a Tailer's output as the leader
// writes. It applies the hold-back rule: a step's settle/observe/forecasts
// prefix stays pending until the step's round arrives behind it, so the
// replayed state is a function of *committed* decisions only. A prefix
// whose round never lands is a crashed process's residue; Finalize aborts
// it.
//
// Feeding discipline: Bootstrap (optionally) with the snapshot, then
// Ingest every record in LSN order. Records below the high-water mark are
// skipped, so at promotion the caller can replay Open's Recovered.Records
// wholesale (IngestAll) without tracking what the tail already delivered.
// Finalize then runs once against the now-writable Store.
type Replayer struct {
	t       Target
	pending map[string][]PositionedRecord
	pend    int
	last    map[string]string // last applied kind per domain

	seen uint64 // next unseen LSN
	rep  Report
}

// NewReplayer builds a replayer over a freshly constructed, un-started
// target (ReplayRound requires the engine to have never run).
func NewReplayer(t Target) (*Replayer, error) {
	if t.Engine == nil {
		return nil, fmt.Errorf("wal: replayer needs an engine")
	}
	return &Replayer{
		t:       t.normalized(),
		pending: map[string][]PositionedRecord{},
		last:    map[string]string{},
	}, nil
}

// Bootstrap restores the snapshot and positions the replayer at its LSN.
// Call at most once, before any Ingest.
func (r *Replayer) Bootstrap(snap *Snapshot) error {
	if snap == nil {
		return nil
	}
	if r.seen != 0 {
		return fmt.Errorf("wal: replayer bootstrap after records were ingested")
	}
	if err := restoreSnapshot(r.t, snap); err != nil {
		return err
	}
	r.seen = snap.LSN
	r.rep.SnapshotLSN = snap.LSN
	return nil
}

// SeenLSN returns the next LSN Ingest expects (everything below it has
// been ingested or was folded into the bootstrap snapshot).
func (r *Replayer) SeenLSN() uint64 { return r.seen }

// Pending counts records held back waiting for their step's round.
func (r *Replayer) Pending() int { return r.pend }

// Rounds counts the rounds applied so far.
func (r *Replayer) Rounds() int { return r.rep.Rounds }

func (r *Replayer) apply(pr PositionedRecord) error {
	if err := replayOne(r.t, pr.Rec); err != nil {
		return fmt.Errorf("wal: replay at LSN %d: %w", pr.LSN, err)
	}
	if pr.Rec.Kind == KindRound {
		r.rep.Rounds++
	}
	r.last[pr.Rec.Domain] = pr.Rec.Kind
	r.rep.Applied++
	return nil
}

// Ingest feeds one record in LSN order. Records below the high-water mark
// are skipped (idempotent re-delivery); a gap above it is an error.
func (r *Replayer) Ingest(pr PositionedRecord) error {
	if pr.LSN < r.seen {
		return nil
	}
	if pr.LSN != r.seen {
		return fmt.Errorf("wal: replayer gap: got LSN %d, want %d", pr.LSN, r.seen)
	}
	r.seen++
	switch pr.Rec.Kind {
	case KindSettle, KindObserve, KindForecasts:
		// Step prefix: pends until this domain's round commits it.
		r.pending[pr.Rec.Domain] = append(r.pending[pr.Rec.Domain], pr)
		r.pend++
		return nil
	case KindRound:
		// The commit point: the pending prefix is durable-behind-a-round
		// now, so it applies, then the round itself.
		for _, p := range r.pending[pr.Rec.Domain] {
			if err := r.apply(p); err != nil {
				return err
			}
			r.pend--
		}
		delete(r.pending, pr.Rec.Domain)
		return r.apply(pr)
	case KindAbort:
		// An earlier recovery gave this prefix up: its round never became
		// durable, and the step re-ran live after the abort.
		r.pend -= len(r.pending[pr.Rec.Domain])
		delete(r.pending, pr.Rec.Domain)
		return nil
	case KindAdvance:
		// An advance always rides behind its round in the same group
		// commit; a pending prefix here means the log is malformed.
		if len(r.pending[pr.Rec.Domain]) > 0 {
			return fmt.Errorf("wal: replayer: advance at LSN %d over a pending step prefix in domain %q", pr.LSN, pr.Rec.Domain)
		}
		return r.apply(pr)
	default:
		// Topology/handover records are fsynced at append time and are
		// not part of a step's prefix: they apply immediately. One is
		// allowed to interleave a pending prefix (its fsync can land
		// between a step's settle and round appends); rounds replayed
		// later still observe it in log order, and settle/observe do not
		// read the state it mutates.
		return r.apply(pr)
	}
}

// IngestAll feeds a batch read by Open with s's appends suppressed: the
// replay drives the engine and controller through their live code paths,
// whose log hooks must not re-log what is being replayed.
func (r *Replayer) IngestAll(s *Store, recs []PositionedRecord) error {
	s.BeginRecovery()
	defer s.EndRecovery()
	for _, pr := range recs {
		if err := r.Ingest(pr); err != nil {
			return err
		}
	}
	return nil
}

// Finalize ends the replay against s, the log it came from, now open for
// writing and holding nothing the replayer has not ingested. It appends
// one abort record per domain that still has a pending prefix (sorted,
// then synced), so every later replay of this log drops that prefix too;
// no byte already written changes. It then completes a trailing
// round-without-advance, whose outcomes were acked, deterministically and
// logged, exactly as the crashed process would have. The returned Report
// summarizes the whole replay since Bootstrap.
func (r *Replayer) Finalize(s *Store) (*Report, error) {
	if end := s.LSN(); end != r.seen {
		return nil, fmt.Errorf("wal: finalize at LSN %d but the log ends at %d", r.seen, end)
	}
	if r.pend > 0 {
		domains := make([]string, 0, len(r.pending))
		for d := range r.pending {
			domains = append(domains, d)
		}
		sort.Strings(domains)
		for _, d := range domains {
			if err := s.append(&Record{Kind: KindAbort, Domain: d}); err != nil {
				return nil, err
			}
		}
		if err := s.Sync(); err != nil {
			return nil, err
		}
		r.rep.HeldBack = r.pend
		r.pending = map[string][]PositionedRecord{}
		r.pend = 0
	}

	var complete []string
	for domain, k := range r.last {
		if k == KindRound {
			complete = append(complete, domain)
		}
	}
	sort.Strings(complete)
	for _, domain := range complete {
		if _, err := r.t.Engine.Advance(domain); err != nil {
			return nil, fmt.Errorf("wal: completing advance for domain %q: %w", domain, err)
		}
		if c := r.t.ctrlFor(domain); c != nil {
			c.ReplayAdvanced()
		}
		r.last[domain] = KindAdvance
		r.rep.CompletedAdvance = append(r.rep.CompletedAdvance, domain)
	}
	rep := r.rep
	return &rep, nil
}
