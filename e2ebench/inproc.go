package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/yield"
)

// inproc is a closed-loop deployment driven through the public Go APIs:
// one admission engine serving several domains, one reopt.Controller and
// one monitoring store per domain. The benchmark runs shards load goroutines, one
// per engine shard; goroutine g drives the domains the engine placed on
// shard g (AddDomain deals domains round-robin), so a domain's steps stay
// serial and no two goroutines contend for one shard.
type inproc struct {
	domains   []string
	nets      []*topology.Network
	kpaths    int
	algorithm string
	hwPeriod  int
	samples   int
	// offers[d][e] are domain d's arrivals at epoch e (0 = cold epoch).
	offers [][][]offer
	// walDir, when set, makes the deployment durable: one wal.Store there
	// logs every domain's rounds and steps.
	walDir string
}

// domainState is the benchmark's side of one domain.
type domainState struct {
	idx      int // index into inproc.domains
	name     string
	eng      *admission.Engine
	ctrl     *reopt.Controller
	store    *monitor.Store
	feed     *feeder
	inflight []pendingReq
}

type pendingReq struct {
	o         offer
	tk        *admission.Ticket
	submitted time.Time
}

// metroDeployment compiles the metro archetype: every pod a domain under
// its own seed, exactly as cmd/loadgen -scenario metro builds it.
func metroDeployment(seed int64, epochs int) (*inproc, error) {
	spec, err := scenario.ByName("metro")
	if err != nil {
		return nil, err
	}
	p := &inproc{algorithm: spec.Algorithm, hwPeriod: spec.HWPeriod, samples: 12}
	for d := 0; d < spec.Domains; d++ {
		cfg, err := spec.Compile(seed + int64(d))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("pod%02d", d)
		p.domains = append(p.domains, name)
		p.nets = append(p.nets, cfg.Net)
		p.kpaths = cfg.KPaths
		offers := make([][]offer, epochs+1)
		for _, sp := range cfg.Slices {
			if sp.ArrivalEpoch <= epochs {
				offers[sp.ArrivalEpoch] = append(offers[sp.ArrivalEpoch], offerOf(name, sp))
			}
		}
		p.offers = append(p.offers, offers)
	}
	return p, nil
}

// churnDeployment is churnDomainsPerShard·shards Romanian(4 BS) domains
// under seeded Poisson tenant churn, logged to a durable WAL in walDir.
func churnDeployment(seed int64, epochs, shards int, walDir string) (*inproc, error) {
	p := &inproc{kpaths: 2, algorithm: "benders", samples: 12, walDir: walDir}
	for d := 0; d < churnDomainsPerShard*shards; d++ {
		name := fmt.Sprintf("op%d", d)
		offers, err := churnArrivals(seed*1009+int64(d), name, epochs+1, churnRate, churnLifetime, "uRLLC", "eMBB", "mMTC")
		if err != nil {
			return nil, err
		}
		p.domains = append(p.domains, name)
		p.nets = append(p.nets, topology.Romanian(4))
		p.offers = append(p.offers, offers)
	}
	return p, nil
}

// churnRate and churnLifetime size tenant-churn: half a request per
// domain per epoch, each living two epochs. At one request per epoch with
// four-epoch lifetimes single rounds of the Benders master took up to
// 22 s on a 2-vCPU machine and a 100-epoch episode 2–33 s depending on
// the seed, so no run fit the time cap with a steady tail; README.md
// records this. Each shard serves churnDomainsPerShard domains, so an
// epoch is a few rounds per shard and its time does not hinge on one.
const (
	churnRate            = 0.5
	churnLifetime        = 2
	churnDomainsPerShard = 4
)

// run executes one episode: set-up through the cold epoch 0, then the
// steady epochs, each timed until every domain's step has returned.
func (p *inproc) run(shards int, tr *tracer) (*episode, error) {
	ep := &episode{fp: newFingerprint(), tr: tr}
	t0 := time.Now()

	var store *wal.Store
	var rlog admission.RoundLog
	var slog reopt.StepLog
	if p.walDir != "" {
		if err := os.RemoveAll(p.walDir); err != nil {
			return nil, err
		}
		var err error
		if store, _, err = wal.Open(wal.Options{Dir: p.walDir}); err != nil {
			return nil, err
		}
		defer store.Close()
		rlog, slog = store, store
		if tr != nil {
			tl := &tracedLog{st: store, tr: tr}
			rlog, slog = tl, tl
		}
	}
	ledger := yield.NewLedger()
	eng := admission.New(admission.Config{Shards: shards, Ledger: ledger, Log: rlog})
	defer eng.Stop()
	var exec *tracedExecutor
	if tr != nil {
		exec = newTracedExecutor(tr)
	}
	doms := make([]*domainState, len(p.domains))
	for d, name := range p.domains {
		dc := admission.DomainConfig{Net: p.nets[d], KPaths: p.kpaths, Algorithm: p.algorithm}
		if exec != nil {
			if err := exec.add(name, dc); err != nil {
				return nil, err
			}
			dc.Executor = exec
		}
		id := tr.begin("admission", "add_domain", name)
		err := eng.AddDomain(name, dc)
		tr.end(id, nil)
		if err != nil {
			return nil, err
		}
		ds := &domainState{idx: d, name: name, eng: eng, store: monitor.NewStore(0),
			feed: newFeeder(p.samples, p.hwPeriod, p.nets[d].NumBS())}
		cfg := reopt.Config{Engine: eng, Domain: name, Store: ds.store, Ledger: ledger, HWPeriod: p.hwPeriod}
		if slog != nil {
			cfg.Log = slog
		}
		ctrl, err := reopt.New(cfg)
		if err != nil {
			return nil, err
		}
		ds.ctrl = ctrl
		doms[d] = ds
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}

	epochs := len(p.offers[0]) - 1
	var ms0 runtimeStats
	for e := 0; e <= epochs; e++ {
		tr.setEpoch(e)
		es := time.Now()
		res := p.epoch(doms, shards, e, tr)
		wall := time.Since(es)
		ep.attempted += res.attempted
		ep.failed += res.failed
		if res.err != nil {
			return ep, res.err
		}
		if e == 0 {
			ep.setup = time.Since(t0)
			ms0 = readRuntime(tr)
			ep.steadyStart = time.Now()
		} else {
			ep.epochs = append(ep.epochs, wall)
			ep.rounds += len(doms)
			ep.decisions = append(ep.decisions, res.decisions...)
		}
		for _, r := range res.rounds {
			ep.fp.round(r)
		}
		ep.rescaled += res.rescaled
		// Play the data plane for the epoch just decided, one goroutine
		// per shard like the steps.
		id := tr.begin("monitor", "add", "")
		forShards(doms, shards, func(ds *domainState) { ds.feed.feed(ds.store, e) })
		tr.end(id, nil)
		for _, ds := range doms {
			for _, n := range res.expired[ds.name] {
				ds.feed.drop(n)
			}
		}
	}
	ep.steady = time.Since(ep.steadyStart)
	ep.runtime = readRuntime(tr).minus(ms0)
	ep.revenue = ledger.Snapshot().Realized
	m := eng.Metrics()
	ep.batchMean, ep.fastRejected, ep.shed = m.MeanBatch, int(m.FastRejected), int(m.Shed)
	if store != nil {
		ep.walBytes = dirBytes(p.walDir)
		eng.Stop()
		if err := store.Close(); err != nil {
			return ep, err
		}
		if err := os.RemoveAll(p.walDir); err != nil {
			return ep, err
		}
	}
	return ep, nil
}

// epochResult is what one epoch's parallel step phase produced.
type epochResult struct {
	attempted, failed int
	err               error
	rounds            []*admission.Round
	decisions         []time.Duration
	rescaled          int
	expired           map[string][]string
}

// epoch submits every domain's arrivals, steps every domain's loop and
// collects the decisions, one load goroutine per shard.
func (p *inproc) epoch(doms []*domainState, shards, e int, tr *tracer) epochResult {
	var mu sync.Mutex
	res := epochResult{expired: map[string][]string{}}
	forShards(doms, shards, func(ds *domainState) {
		var r epochResult
		for _, o := range p.offers[ds.idx][e] {
			r.attempted++
			id := tr.begin("admission", "submit", ds.name)
			now := time.Now()
			tk, err := ds.eng.Submit(o.req)
			tr.end(id, nil)
			if err != nil {
				r.failed++
				continue
			}
			ds.inflight = append(ds.inflight, pendingReq{o: o, tk: tk, submitted: now})
		}
		r.attempted++
		id := tr.begin("reopt", "step", ds.name)
		tr.enter(id)
		rep, err := ds.ctrl.Step()
		tr.end(id, nil)
		if err != nil {
			r.failed++
			r.err = fmt.Errorf("%s epoch %d: %w", ds.name, e, err)
		} else {
			r.rounds = append(r.rounds, rep.Round)
			r.rescaled = rep.Rescaled
			r.expired = map[string][]string{ds.name: rep.Expired}
			still := ds.inflight[:0]
			for _, pr := range ds.inflight {
				out, ok := pr.tk.Outcome()
				if !ok {
					if pr.tk.Err() != nil {
						r.failed++
						continue
					}
					still = append(still, pr)
					continue
				}
				r.decisions = append(r.decisions, time.Since(pr.submitted))
				if out.Admitted {
					ds.feed.admit(pr.o.spec)
				}
			}
			ds.inflight = still
		}
		mu.Lock()
		defer mu.Unlock()
		res.attempted += r.attempted
		res.failed += r.failed
		if r.err != nil && res.err == nil {
			res.err = r.err
		}
		res.rounds = append(res.rounds, r.rounds...)
		res.decisions = append(res.decisions, r.decisions...)
		res.rescaled += r.rescaled
		for k, v := range r.expired {
			res.expired[k] = v
		}
	})
	return res
}

// forShards runs f on every domain, domain i on goroutine i%shards, and
// returns when all have finished.
func forShards(doms []*domainState, shards int, f func(*domainState)) {
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(doms); i += shards {
				f(doms[i])
			}
		}(g)
	}
	wg.Wait()
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a vanished file just counts 0
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
