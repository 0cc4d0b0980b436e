package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/reopt"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/yield"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Parent is the span that caused it: the domain's
// open step (in-process workloads) or the open POST /epoch (REST).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Domain string `json:"domain,omitempty"`
	Epoch  int    `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Solve attributes (layer core).
	Cold     bool `json:"cold,omitempty"`
	Iters    int  `json:"iters,omitempty"`
	Fresh    int  `json:"fresh,omitempty"`
	Cuts     int  `json:"cuts,omitempty"`
	Fallback bool `json:"fallback,omitempty"`
	// HTTP attributes (layers ctrlplane and southbound).
	Status int `json:"status,omitempty"`
	Bytes  int `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one episode. A nil *tracer is the
// untraced run: every method returns at once, so the untraced code path
// pays one nil check per layer call.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	epoch  int
	next   int64
	open   map[int64]span
	scope  map[string]int64 // domain → span its layer calls belong to
	syncQ  []string         // domains whose appended round awaits its sync
	spans  []span
	faults []string // correctness failures seen at a seam
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int64]span{}, scope: map[string]int64{}}
}

// setEpoch stamps spans begun from now on with the loop's epoch.
func (t *tracer) setEpoch(e int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = e
	t.mu.Unlock()
}

// begin opens a span under the domain's current scope and returns its id.
func (t *tracer) begin(layer, name, domain string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = span{ID: t.next, Parent: t.scope[domain], Layer: layer, Name: name,
		Domain: domain, Epoch: t.epoch, Start: now}
	return t.next
}

// enter makes an open span the parent of the domain's later spans until it
// ends.
func (t *tracer) enter(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scope[t.open[id].Domain] = id
	t.mu.Unlock()
}

// end closes a span; set, when non-nil, fills its attributes.
func (t *tracer) end(id int64, set func(*span)) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	s.End = now
	if set != nil {
		set(&s)
	}
	if t.scope[s.Domain] == id {
		delete(t.scope, s.Domain)
	}
	t.spans = append(t.spans, s)
}

// fail records a correctness failure found at a seam (the executor's
// verification runs on an engine shard, away from the loop).
func (t *tracer) fail(format string, args ...any) {
	t.mu.Lock()
	t.faults = append(t.faults, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every episode's spans as JSON lines, one file per run.
func writeSpans(path string, eps []*episode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, ep := range eps {
		for _, s := range ep.tr.closed() {
			if err := enc.Encode(struct {
				Episode int `json:"episode"`
				span
			}{i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// tracedExecutor is the solve seam: installed as every domain's
// admission.Executor in a traced run, it times each round's solve, keeps
// the solver's own counters, and checks every decision with core.Verify.
// It builds each domain's solver from core the way admission.Engine's
// AddDomain does; the Executor contract makes its decisions identical to
// the engine's local solve.
type tracedExecutor struct {
	tr  *tracer
	mu  sync.Mutex
	dom map[string]*execDomain
}

type execDomain struct {
	dc      admission.DomainConfig
	paths   [][][]topology.Path
	session *core.BendersSession // nil unless dc.Algorithm is benders
	solves  int                  // touched only from the domain's shard
}

func newTracedExecutor(tr *tracer) *tracedExecutor {
	return &tracedExecutor{tr: tr, dom: map[string]*execDomain{}}
}

// add registers a domain before the engine first solves it.
func (x *tracedExecutor) add(name string, dc admission.DomainConfig) error {
	dc, err := dc.Normalized()
	if err != nil {
		return err
	}
	d := &execDomain{dc: dc, paths: dc.Net.Paths(dc.KPaths)}
	switch dc.Algorithm {
	case "benders":
		d.session = core.NewBendersSession(dc.Benders)
	case "direct", "no-overbooking":
	default:
		return fmt.Errorf("traced executor: algorithm %q not supported", dc.Algorithm)
	}
	x.mu.Lock()
	x.dom[name] = d
	x.mu.Unlock()
	return nil
}

// SolveRound implements admission.Executor.
func (x *tracedExecutor) SolveRound(domain string, seq uint64, events []topology.Event, tenants []core.TenantSpec) (*core.Decision, error) {
	x.mu.Lock()
	d := x.dom[domain]
	x.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("traced executor: unknown domain %q", domain)
	}
	net := d.dc.Net
	if len(events) > 0 {
		var err error
		if net, err = topology.Apply(d.dc.Net, events); err != nil {
			return nil, err
		}
	}
	inst := &core.Instance{Net: net, Paths: d.paths, Tenants: tenants,
		Overbook: d.dc.Algorithm != "no-overbooking", BigM: d.dc.BigM, RiskHorizon: d.dc.RiskHorizon}
	id := x.tr.begin("core", "solve", domain)
	var dec *core.Decision
	var err error
	if d.session != nil {
		dec, err = d.session.Solve(inst)
	} else {
		dec, err = core.SolveDirect(inst)
	}
	cold := d.solves == 0
	d.solves++
	x.tr.end(id, func(s *span) {
		s.Cold = cold
		for _, t := range tenants {
			if !t.Committed {
				s.Fresh++
			}
		}
		if d.session != nil {
			s.Cuts = d.session.CarriedCuts()
		}
		if dec != nil {
			s.Iters, s.Fallback = dec.Iterations, dec.FellBack
		}
	})
	if err != nil {
		return nil, err
	}
	psi, verr := core.Verify(inst, dec)
	switch {
	case verr != nil:
		x.tr.fail("%s round %d: core.Verify: %v", domain, seq, verr)
	case math.Abs(psi-dec.Obj) > 1e-6*math.Max(1, math.Abs(dec.Obj)):
		x.tr.fail("%s round %d: verified objective %.9g != decision objective %.9g", domain, seq, psi, dec.Obj)
	}
	return dec, nil
}

// tracedLog is the WAL seam: it stands between the engine/controller and
// a wal.Store, timing every append and every round sync.
type tracedLog struct {
	st *wal.Store
	tr *tracer
}

var (
	_ admission.RoundLog = (*tracedLog)(nil)
	_ reopt.StepLog      = (*tracedLog)(nil)
)

func (l *tracedLog) timed(name, domain string, f func() error) error {
	id := l.tr.begin("wal", name, domain)
	err := f()
	l.tr.end(id, nil)
	return err
}

func (l *tracedLog) AppendRound(domain string, seq uint64, batch []admission.Request) error {
	err := l.timed("append", domain, func() error { return l.st.AppendRound(domain, seq, batch) })
	l.tr.mu.Lock()
	l.tr.syncQ = append(l.tr.syncQ, domain)
	l.tr.mu.Unlock()
	return err
}

func (l *tracedLog) AppendForecasts(domain string, ups []admission.ForecastUpdate) error {
	return l.timed("append", domain, func() error { return l.st.AppendForecasts(domain, ups) })
}

func (l *tracedLog) AppendAdvance(domain string) error {
	return l.timed("append", domain, func() error { return l.st.AppendAdvance(domain) })
}

func (l *tracedLog) AppendTopology(domain string, events []topology.Event) error {
	return l.timed("append", domain, func() error { return l.st.AppendTopology(domain, events) })
}

func (l *tracedLog) AppendHandover(from, to, name string) error {
	return l.timed("append", from, func() error { return l.st.AppendHandover(from, to, name) })
}

func (l *tracedLog) AppendSettle(domain string, epoch int, entries []yield.Entry) error {
	return l.timed("append", domain, func() error { return l.st.AppendSettle(domain, epoch, entries) })
}

func (l *tracedLog) AppendObserve(domain string, epoch int, alive []string, peaks []reopt.ObservedPeak) error {
	return l.timed("append", domain, func() error { return l.st.AppendObserve(domain, epoch, alive, peaks) })
}

// SyncRound carries no domain, so the sync is charged to the oldest round
// appended and not yet synced. The engine appends and syncs a round back
// to back on the domain's shard, so with one domain per shard the guess
// is wrong only when two shards' rounds interleave.
func (l *tracedLog) SyncRound() error {
	l.tr.mu.Lock()
	dom := ""
	if len(l.tr.syncQ) > 0 {
		dom, l.tr.syncQ = l.tr.syncQ[0], l.tr.syncQ[1:]
	}
	l.tr.mu.Unlock()
	return l.timed("sync", dom, l.st.SyncRound)
}

// middleware times every request a handler serves as a span of layer.
// POST /epoch opens the domain scope the round's solve and southbound
// calls are charged to.
func (t *tracer) middleware(layer, domain string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if i := strings.IndexByte(route[1:], '/'); i >= 0 {
			route = route[:i+1]
		}
		id := t.begin(layer, r.Method+" "+route, domain)
		if r.Method == http.MethodPost && route == "/epoch" {
			t.enter(id)
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		t.end(id, func(s *span) { s.Status, s.Bytes = cw.status, cw.n })
	})
}

type countingWriter struct {
	http.ResponseWriter
	status, n int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}
