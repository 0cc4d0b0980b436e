package wal

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/yield"
)

// startTwoDomainProc is startProc with a second, engine-only domain "b"
// sharing the same topology — the handover destination. No snapshots: every
// restart replays the full log, which exercises the handover record's
// replay path on every recovery.
func startTwoDomainProc(t testing.TB, cfg sim.Config, algorithm, dir string) *proc {
	t.Helper()
	p := &proc{store: monitor.NewStore(0), ledger: yield.NewLedger()}

	var recovered *Recovered
	if dir != "" {
		var err error
		p.wal, recovered, err = Open(Options{Dir: dir, SegmentBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
	}
	engCfg := admission.Config{QueueDepth: 1024, Ledger: p.ledger}
	if p.wal != nil {
		engCfg.Log = p.wal
	}
	p.eng = admission.New(engCfg)
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}
	if err := p.eng.AddDomain("", dc); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.AddDomain("b", dc); err != nil {
		t.Fatal(err)
	}
	loopCfg := reopt.Config{
		Engine: p.eng, Store: p.store, Ledger: p.ledger,
		HWPeriod: cfg.HWPeriod, ReoptEvery: 1,
	}
	if p.wal != nil {
		loopCfg.Log = p.wal
	}
	ctrl, err := reopt.New(loopCfg)
	if err != nil {
		t.Fatal(err)
	}
	p.ctrl = ctrl
	if p.wal != nil {
		rep, err := Recover(p.wal, recovered, Target{Engine: p.eng, Controller: ctrl, Ledger: p.ledger})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		p.rec = rep
	}
	if err := p.eng.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// bEpoch plays domain b's engine-only epoch: offer any epoch-0 requests,
// decide a round, advance the lifecycle clock. Returns a decision
// fingerprint in the equality-suite format.
func bEpoch(t testing.TB, p *proc, epoch int, offers []offer, submitted map[string]bool) string {
	t.Helper()
	for _, o := range offers {
		if submitted[o.spec.Name] {
			continue
		}
		if _, err := p.eng.Submit(admission.Request{Name: o.spec.Name, Domain: "b", SLA: o.sla}); err != nil {
			t.Fatalf("epoch %d: submit %s to b: %v", epoch, o.spec.Name, err)
		}
		submitted[o.spec.Name] = true
	}
	r, err := p.eng.DecideRound("b")
	if err != nil {
		t.Fatalf("epoch %d: domain b round: %v", epoch, err)
	}
	var bld strings.Builder
	fmt.Fprintf(&bld, "b epoch %d exp=%.4f:", epoch, r.Decision.Revenue())
	for i, name := range r.Names {
		if i < len(r.Decision.Accepted) && r.Decision.Accepted[i] {
			fmt.Fprintf(&bld, " %s@cu%d%v", name, r.Decision.CU[i], r.Decision.PathIdx[i])
		}
	}
	if _, err := p.eng.Advance("b"); err != nil {
		t.Fatalf("epoch %d: domain b advance: %v", epoch, err)
	}
	return bld.String()
}

// domainBOffers is domain b's own tenants: the same template population as
// the controller's domain, under distinct names.
func domainBOffers(cfg sim.Config) []offer {
	var out []offer
	for i := 0; i < 2; i++ {
		sp := cfg.Slices[i]
		sp.Name = fmt.Sprintf("b-%s", sp.Name)
		out = append(out, offer{
			spec: sp,
			sla: slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
				WithPenaltyFactor(sp.PenaltyFactor),
		})
	}
	return out
}

// TestKillAndReplayHandover extends the kill-and-replay gate across a
// domain boundary: a committed slice hands over from the controller-driven
// domain to an engine-only peer mid-run, the control plane is hard-killed
// on both sides of the move, and the recovered run — handover record
// replayed through the live Handover path — must match the uninterrupted
// reference bit for bit in both domains' decision traces and committed
// detail, with the moved slice's ledger identity (name, tenant, SLA,
// forecast view, remaining lifetime) intact.
func TestKillAndReplayHandover(t *testing.T) {
	spec, err := scenario.ByName("homogeneous")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)

	bOffers := domainBOffers(cfg)

	const handoverEpoch = 5
	run := func(t testing.TB, dir string, kills map[int]bool) ([]string, finalState, []admission.CommittedSlice, int) {
		w := newWorld(cfg, spec.ReofferPending)
		p := startTwoDomainProc(t, cfg, spec.Algorithm, dir)
		submitted := map[string]bool{}
		var lines []string
		var moved string
		recoveries := 0
		for e := 0; e < recEpochs; e++ {
			if dir != "" && kills[e] {
				p.kill()
				p = startTwoDomainProc(t, cfg, spec.Algorithm, dir)
				if got := p.ctrl.Epoch(); got != e {
					t.Fatalf("recovered to epoch %d, want %d (report %+v)", got, e, p.rec)
				}
				w.reconnect(p)
				recoveries++
			}
			if e == handoverEpoch {
				names, err := p.eng.Committed(admission.DefaultDomain)
				if err != nil || len(names) == 0 {
					t.Fatalf("epoch %d: nothing committed to hand over (%v)", e, err)
				}
				moved = names[0]
				if err := p.eng.Handover("", "b", moved); err != nil {
					t.Fatalf("handover %s: %v", moved, err)
				}
				lines = append(lines, "handover "+moved)
			}
			lines = append(lines, w.runEpoch(t, p, e))
			lines = append(lines, bEpoch(t, p, e, bOffers, submitted))
		}
		// The moved slice must live in b with its identity intact, and must
		// be gone from the source.
		bDetail, err := p.eng.CommittedDetail("b")
		if err != nil {
			t.Fatal(err)
		}
		foundMoved := false
		for _, cs := range bDetail {
			if cs.Name == moved {
				foundMoved = true
			}
		}
		if !foundMoved {
			t.Fatalf("moved slice %q not committed in domain b: %+v", moved, bDetail)
		}
		srcNames, err := p.eng.Committed(admission.DefaultDomain)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range srcNames {
			if n == moved {
				t.Fatalf("moved slice %q still committed in the source domain", moved)
			}
		}
		final := capture(t, p)
		p.stop()
		return lines, final, bDetail, recoveries
	}

	refLines, refFinal, refB, _ := run(t, "", nil)

	// Kills on both sides of the handover epoch: one recovery must replay
	// rounds only, the other must replay the handover record too.
	kills := map[int]bool{4: true, 7: true}
	lines, final, bDetail, recoveries := run(t, t.TempDir(), kills)
	if recoveries != 2 {
		t.Fatalf("expected 2 recoveries, got %d", recoveries)
	}
	assertIdentical(t, "handover", refFinal, final, refLines, lines)
	if !reflect.DeepEqual(refB, bDetail) {
		t.Fatalf("domain b committed detail diverged:\nreference: %+v\nrecovered: %+v", refB, bDetail)
	}
}
