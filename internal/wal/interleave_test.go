package wal

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/yield"
)

// Crash points inside a step. A step's settle/observe prefix sits in the
// append buffer when a topology change (and, with two domains, a
// handover) fsyncs its own record, and with it the prefix, to disk. The
// process then dies before the step's round. Recovery must give the
// prefix up, keep the fsynced events, and leave a log that every later
// start recovers again.

// interleaveAt is the epoch boundary where the interleaved crash lands.
const interleaveAt = 4

// interleaveEvent is the capacity change delivered at interleaveAt; it
// moves later decisions, so a lost or doubled replay shows in the trace.
var interleaveEvent = topology.BSDegrade(interleaveAt, 0, 0.3)

// interleaveCase selects the harness (the controller's domain alone, or
// with the engine-only domain b and a handover into it) and the first
// recovery's path (Recover, or a tail-fed Replayer promoted by Finalize).
type interleaveCase struct {
	twoDomain, promote bool
}

func (c interleaveCase) start(t testing.TB, cfg sim.Config, algorithm, dir string) *proc {
	t.Helper()
	if c.twoDomain {
		return startTwoDomainProc(t, cfg, algorithm, dir)
	}
	return startProc(t, cfg, algorithm, dir, 0)
}

// appendGhostPrefix buffers a step prefix whose round never comes.
func appendGhostPrefix(t testing.TB, s *Store, epoch int) {
	t.Helper()
	if err := s.AppendSettle(admission.DefaultDomain, epoch-1, []yield.Entry{{Slice: "ghost", Epoch: epoch - 1, Realized: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendObserve(admission.DefaultDomain, epoch, []string{"ghost"}, []reopt.ObservedPeak{{Name: "ghost", Peak: 9}}); err != nil {
		t.Fatal(err)
	}
}

// run plays recEpochs epochs with the capacity event (and the handover)
// at the start of epoch interleaveAt. With dir empty it is the
// uninterrupted reference. With dir set the events land behind a buffered
// step prefix and the process is killed there. It then recovers once,
// is killed again right after that recovery, recovers through Recover,
// and resumes. It returns the decision trace, the final state, and every
// domain's exported state (committed slices and applied events).
func (c interleaveCase) run(t *testing.T, spec scenario.Spec, cfg sim.Config, dir string) ([]string, finalState, []admission.DomainState) {
	w := newWorld(cfg, spec.ReofferPending)
	if dir == "" {
		w.events = append(w.events, interleaveEvent)
	}
	bOffers, submitted := domainBOffers(cfg), map[string]bool{}
	p := c.start(t, cfg, spec.Algorithm, dir)

	var tail *Tailer
	var sb *proc
	var replayer *Replayer
	if c.promote && dir != "" {
		var err error
		if tail, err = OpenTailer(dir); err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		var extra []string
		if c.twoDomain {
			extra = []string{"b"}
		}
		sb, replayer = newStandbyProc(t, cfg, spec.Algorithm, extra...)
	}

	var lines []string
	for e := 0; e < recEpochs; e++ {
		if e == interleaveAt {
			if dir != "" {
				appendGhostPrefix(t, p.wal, e)
			}
			if c.twoDomain {
				names, err := p.eng.Committed(admission.DefaultDomain)
				if err != nil || len(names) == 0 {
					t.Fatalf("epoch %d: nothing committed to hand over (%v)", e, err)
				}
				if err := p.eng.Handover("", "b", names[0]); err != nil {
					t.Fatalf("handover %s: %v", names[0], err)
				}
				lines = append(lines, "handover "+names[0])
			}
			if dir != "" {
				if err := p.eng.ApplyTopology("", []topology.Event{interleaveEvent}); err != nil {
					t.Fatal(err)
				}
				p.kill()
				heldBack := 0
				if c.promote {
					drainTail(t, tail, replayer)
					ws, recovered, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
					if err != nil {
						t.Fatal(err)
					}
					if err := replayer.IngestAll(ws, recovered.Records); err != nil {
						t.Fatal(err)
					}
					rep, err := replayer.Finalize(ws)
					if err != nil {
						t.Fatalf("promotion: %v", err)
					}
					heldBack = rep.HeldBack
					sb.wal = ws
					sb.kill()
				} else {
					p = c.start(t, cfg, spec.Algorithm, dir)
					heldBack = p.rec.HeldBack
					p.kill()
				}
				if heldBack != 2 {
					t.Fatalf("first recovery held back %d records, want the 2-record ghost prefix", heldBack)
				}
				p = c.start(t, cfg, spec.Algorithm, dir)
				if p.rec.HeldBack != 0 {
					t.Fatalf("second recovery held back %d records, want 0 (report %+v)", p.rec.HeldBack, p.rec)
				}
				if got := p.ctrl.Epoch(); got != e {
					t.Fatalf("recovered to epoch %d, want %d (report %+v)", got, e, p.rec)
				}
				w.reconnect(p)
			}
		}
		lines = append(lines, w.runEpoch(t, p, e))
		if c.twoDomain {
			lines = append(lines, bEpoch(t, p, e, bOffers, submitted))
		}
		if tail != nil && e < interleaveAt {
			drainTail(t, tail, replayer)
		}
	}
	domains := []string{admission.DefaultDomain}
	if c.twoDomain {
		domains = append(domains, "b")
	}
	var states []admission.DomainState
	for _, d := range domains {
		ds, err := p.eng.ExportDomain(d)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, ds)
	}
	final := capture(t, p)
	p.stop()
	return lines, final, states
}

// TestKillAndReplayInterleavedEvents pins the crash where a topology
// change, and a handover with two domains, fsyncs behind an uncommitted
// step prefix. Recovery through Recover and through a standby promotion
// must both come back, and so must the start after that. The resumed run
// must equal an uninterrupted one that applied the same events at the
// same point.
func TestKillAndReplayInterleavedEvents(t *testing.T) {
	spec, err := scenario.ByName("homogeneous")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)
	for _, c := range []interleaveCase{{}, {promote: true}, {twoDomain: true}, {twoDomain: true, promote: true}} {
		c := c
		t.Run(fmt.Sprintf("two-domain=%v/promote=%v", c.twoDomain, c.promote), func(t *testing.T) {
			t.Parallel()
			refLines, refFinal, refDomains := c.run(t, spec, cfg, "")
			lines, final, domains := c.run(t, spec, cfg, t.TempDir())
			assertIdentical(t, "interleaved crash", refFinal, final, refLines, lines)
			if !reflect.DeepEqual(refDomains, domains) {
				t.Fatalf("domain state diverged:\nreference: %+v\nrecovered: %+v", refDomains, domains)
			}
		})
	}
}

// writeLog writes recs, renumbered from LSN 0, as a fresh log in dir.
func writeLog(t testing.TB, dir string, recs []Record) {
	t.Helper()
	s, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := s.append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// withoutHoldBack drops every step-prefix record no later round of its
// domain commits, and every abort record: the log a crash-free writer
// would have left, which recovery replays without holding anything back.
func withoutHoldBack(recs []Record) []Record {
	committed := map[string]bool{} // domain has a round further on
	keep := make([]bool, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch r.Kind {
		case KindRound:
			committed[r.Domain] = true
			keep[i] = true
		case KindAbort:
			committed[r.Domain] = false
		case KindSettle, KindObserve, KindForecasts:
			keep[i] = committed[r.Domain]
		default:
			keep[i] = true
		}
	}
	var out []Record
	for i, r := range recs {
		if keep[i] {
			out = append(out, r)
		}
	}
	return out
}

// recoveredState recovers dir with the two-domain harness and returns the
// durable image of what came back plus the recovery report.
func recoveredState(t testing.TB, cfg sim.Config, algorithm, dir string) (*Snapshot, *Report) {
	t.Helper()
	p := startTwoDomainProc(t, cfg, algorithm, dir)
	defer p.kill()
	snap, err := BuildSnapshot(p.eng, []string{admission.DefaultDomain, "b"},
		[]reopt.ControllerState{p.ctrl.ExportState()}, p.ledger)
	if err != nil {
		t.Fatal(err)
	}
	return snap, p.rec
}

// TestCrashPrefixesRecover cuts a small two-domain log, with a topology
// change and a handover fsynced behind an uncommitted step prefix, at
// every LSN, and recovers each cut. Every cut must recover. The result
// must equal the recovery of the same cut with its uncommitted prefix
// records removed, and a second recovery of the cut must hold nothing
// back and reach the same state.
func TestCrashPrefixesRecover(t *testing.T) {
	spec, err := scenario.ByName("homogeneous")
	if err != nil {
		t.Fatal(err)
	}
	// Small enough that every cut recovers three times in seconds: two
	// tenants for the controller's domain, the crash at the start of epoch
	// 2, and two whole steps of both domains after it.
	spec = recCISize(spec)
	spec.Tenants, spec.Epochs = 2, 4
	const crashAt = 2
	cfg := recCompile(t, spec, 42)

	// Record the log: the interleaved crash, its recovery (one abort
	// record), and two more epochs of both domains.
	src := t.TempDir()
	c := interleaveCase{twoDomain: true}
	w := newWorld(cfg, spec.ReofferPending)
	bOffers, submitted := domainBOffers(cfg), map[string]bool{}
	p := c.start(t, cfg, spec.Algorithm, src)
	for e := 0; e < spec.Epochs; e++ {
		if e == crashAt {
			appendGhostPrefix(t, p.wal, e)
			names, err := p.eng.Committed(admission.DefaultDomain)
			if err != nil || len(names) == 0 {
				t.Fatalf("epoch %d: nothing committed to hand over (%v)", e, err)
			}
			if err := p.eng.Handover("", "b", names[0]); err != nil {
				t.Fatal(err)
			}
			if err := p.eng.ApplyTopology("", []topology.Event{interleaveEvent}); err != nil {
				t.Fatal(err)
			}
			p.kill()
			p = c.start(t, cfg, spec.Algorithm, src)
			w.reconnect(p)
		}
		w.runEpoch(t, p, e)
		bEpoch(t, p, e, bOffers, submitted)
	}
	p.stop()
	s, rec, err := Open(Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	var recs []Record
	kinds := map[string]int{}
	for _, pr := range rec.Records {
		recs = append(recs, pr.Rec)
		kinds[pr.Rec.Kind]++
	}
	for _, k := range []string{KindTopology, KindHandover, KindAbort} {
		if kinds[k] != 1 {
			t.Fatalf("recorded log has %d %s records, want 1 (kinds %v)", kinds[k], k, kinds)
		}
	}

	t.Logf("recorded log: %d records %v", len(recs), kinds)
	for k := 0; k <= len(recs); k++ {
		cut, ref := t.TempDir(), t.TempDir()
		writeLog(t, cut, recs[:k])
		writeLog(t, ref, withoutHoldBack(recs[:k]))
		got, rep := recoveredState(t, cfg, spec.Algorithm, cut)
		want, refRep := recoveredState(t, cfg, spec.Algorithm, ref)
		if refRep.HeldBack != 0 {
			t.Fatalf("cut %d: the reference log still needed hold-back (report %+v)", k, refRep)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d (report %+v): recovered state diverged from the hold-back-free log:\nwant %+v\ngot  %+v", k, rep, want, got)
		}
		again, rep2 := recoveredState(t, cfg, spec.Algorithm, cut)
		if rep2.HeldBack != 0 {
			t.Fatalf("cut %d: second recovery held back %d records, want 0", k, rep2.HeldBack)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("cut %d: second recovery diverged:\nfirst  %+v\nsecond %+v", k, got, again)
		}
	}
}
