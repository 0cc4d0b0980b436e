package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/monitor"
	"repro/internal/topology"
	"repro/internal/yield"
)

// restServer is one loopback HTTP service the episode owns.
type restServer struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*restServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &restServer{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		addr: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its serve goroutine.
func (s *restServer) close() {
	s.srv.Close() //nolint:errcheck // closing listeners of a finished episode
	<-s.done
}

// restClient is the tenant/operator side: one keep-alive connection,
// requests strictly one after another (a closed loop).
type restClient struct {
	c                 *http.Client
	attempted, failed int
}

func newRESTClient() *restClient {
	return &restClient{c: &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// do sends one request and decodes a 2xx JSON answer into out; any other
// outcome counts as a failed operation.
func (c *restClient) do(method, url string, body, out any) error {
	c.attempted++
	err := func() error {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}()
	if err != nil {
		c.failed++
	}
	return err
}

// runREST runs one rest-durable episode: an orchestrator built the way
// cmd/ovnes builds it by default (testbed topology, direct solver,
// snapshots every 16 epochs) with a data directory, served over loopback
// HTTP with the three southbound controllers on loopback listeners, and
// driven epoch by epoch in a closed loop. It ends with a simulated crash
// and a timed recovery on the same directory.
func runREST(seed int64, epochs int, dir string, tr *tracer) (ep *episode, err error) {
	ep = &episode{fp: newFingerprint(), tr: tr}
	t0 := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	offers, err := churnArrivals(seed, "", epochs+1, restRate, churnLifetime, "eMBB", "mMTC")
	if err != nil {
		return nil, err
	}
	netw := topology.Testbed()
	dp := dataplane.NewEmulator(netw)
	var servers []*restServer
	defer func() {
		for _, s := range servers {
			s.close()
		}
	}()
	var ctl [3]string
	for i, h := range []http.Handler{
		ctrlplane.NewRANController(dp).Handler(),
		ctrlplane.NewTransportController(dp).Handler(),
		ctrlplane.NewCloudController(dp).Handler(),
	} {
		s, err := serveLoopback(tr.middleware("southbound", "default", h))
		if err != nil {
			return nil, err
		}
		servers = append(servers, s)
		ctl[i] = s.addr
	}
	store := monitor.NewStore(0)
	cfg := ctrlplane.OrchestratorConfig{
		Net: netw, Algorithm: "direct", Shards: 1, QueueDepth: 1024, Store: store,
		RANAddr: ctl[0], TransportAddr: ctl[1], CloudAddr: ctl[2],
		DataDir: dir, SnapshotEvery: 16,
	}
	if tr != nil {
		x := newTracedExecutor(tr)
		if err := x.add("default", restDomainConfig(netw)); err != nil {
			return nil, err
		}
		cfg.Executor = x
	}
	orch, err := ctrlplane.NewOrchestrator(cfg)
	if err != nil {
		return nil, err
	}
	aborted := false
	defer func() {
		if !aborted {
			orch.Abort()
		}
	}()
	api, err := serveLoopback(tr.middleware("ctrlplane", "default", orch.Handler()))
	if err != nil {
		return nil, err
	}
	servers = append(servers, api)

	cl := newRESTClient()
	defer func() { ep.attempted, ep.failed = cl.attempted, cl.failed }()
	feed := newFeeder(12, 12, netw.NumBS())
	specOf := map[string]offer{}
	var ms0 runtimeStats
	for e := 0; e <= epochs; e++ {
		tr.setEpoch(e)
		submitted := map[string]time.Time{}
		// 1. this epoch's arrivals.
		for _, o := range offers[e] {
			specOf[o.spec.Name] = o
			st := time.Now()
			if err := cl.do(http.MethodPost, api.addr+"/requests", ctrlplane.NSDescriptor{Request: restRequest(o)}, nil); err != nil {
				return ep, err
			}
			submitted[o.spec.Name] = st
			if e > 0 {
				ep.submits = append(ep.submits, time.Since(st))
			}
		}
		// 2. the previous epoch's monitoring samples, straight into the
		// store (no UDP loss), for this epoch's settle and observe.
		id := tr.begin("monitor", "add", "")
		if e > 0 {
			feed.feed(store, e-1)
		}
		tr.end(id, nil)
		// 3. one read of the registry and one of the yield account.
		var statuses []ctrlplane.SliceStatus
		rs := time.Now()
		if err := cl.do(http.MethodGet, api.addr+"/slices", nil, &statuses); err != nil {
			return ep, err
		}
		if e > 0 {
			ep.reads = append(ep.reads, time.Since(rs))
		}
		var y yield.Summary
		if err := cl.do(http.MethodGet, api.addr+"/yield", nil, &y); err != nil {
			return ep, err
		}
		// 4. the epoch itself.
		var rep ctrlplane.EpochReport
		ps := time.Now()
		if err := cl.do(http.MethodPost, api.addr+"/epoch", nil, &rep); err != nil {
			return ep, err
		}
		done := time.Now()
		if e == 0 {
			ep.setup = done.Sub(t0)
			ep.steadyStart = done
			ms0 = readRuntime(tr)
		} else {
			ep.epochs = append(ep.epochs, done.Sub(ps))
			ep.rounds++
			for _, n := range append(append([]string(nil), rep.Accepted...), rep.Rejected...) {
				if st, ok := submitted[n]; ok {
					ep.decisions = append(ep.decisions, done.Sub(st))
				}
			}
		}
		ep.fp.add("default", restLine(&rep))
		for _, n := range rep.Accepted {
			feed.admit(specOf[n].spec)
		}
		for _, n := range rep.Expired {
			feed.drop(n)
		}
	}
	ep.steady = time.Since(ep.steadyStart)
	ep.runtime = readRuntime(tr).minus(ms0)

	var before yield.Summary
	if err := cl.do(http.MethodGet, api.addr+"/yield", nil, &before); err != nil {
		return ep, err
	}
	ep.revenue = before.Realized
	var met ctrlplane.MetricsReport
	if err := cl.do(http.MethodGet, api.addr+"/metrics", nil, &met); err != nil {
		return ep, err
	}
	ep.batchMean, ep.fastRejected, ep.shed = met.MeanBatch, int(met.FastRejected), int(met.Shed)
	ep.walBytes = dirBytes(dir)

	// Crash, then recover on the same directory and read the account back.
	orch.Abort()
	aborted = true
	api.close()
	servers = servers[:len(servers)-1]
	cfg.Store = monitor.NewStore(0)
	cfg.Executor = nil
	rs := time.Now()
	rec, err := ctrlplane.NewOrchestrator(cfg)
	ep.recover = time.Since(rs)
	if err != nil {
		return ep, fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close() //nolint:errcheck // the episode's state is discarded
	if r := rec.Recovery(); r != nil {
		ep.replayedRounds, ep.replayedRecords = r.Rounds, r.Applied
	}
	api2, err := serveLoopback(rec.Handler())
	if err != nil {
		return ep, err
	}
	servers = append(servers, api2)
	var after yield.Summary
	if err := cl.do(http.MethodGet, api2.addr+"/yield", nil, &after); err != nil {
		return ep, err
	}
	if !reflect.DeepEqual(before, after) {
		ep.faults = append(ep.faults, fmt.Sprintf("recovered GET /yield %+v != pre-crash %+v", after, before))
	}
	return ep, nil
}

// restDomainConfig is the admission domain NewOrchestrator builds from an
// OrchestratorConfig with no KPaths set.
func restDomainConfig(n *topology.Network) admission.DomainConfig {
	return admission.DomainConfig{Net: n, KPaths: 3, Algorithm: "direct"}
}

// restRequest is the tenant's REST view of a generated arrival.
func restRequest(o offer) ctrlplane.SliceRequest {
	sp := o.spec
	return ctrlplane.SliceRequest{
		Name: sp.Name, Type: sp.Template.Type.String(),
		DurationEpochs: sp.Duration, PenaltyFactor: sp.PenaltyFactor,
	}
}

// restLine is an epoch's decision as the REST surface shows it: accepted,
// rejected and expired names, and each slice's state and CU. Reservations
// are left out, as in the in-process fingerprint; path choices are not
// visible over REST.
func restLine(rep *ctrlplane.EpochReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d acc=%v rej=%v exp=%v", rep.Epoch, rep.Accepted, rep.Rejected, rep.Expired)
	ss := append([]ctrlplane.SliceStatus(nil), rep.Slices...)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].Name < ss[j].Name })
	for _, s := range ss {
		fmt.Fprintf(&b, " %s:%s/%d", s.Name, s.State, s.CU)
	}
	return b.String()
}

// restRate is rest-durable's arrival rate per epoch. Its tenants are the
// metro mix without uRLLC: at the full mix, or at a rate of 1, committed
// reservations drift past what the testbed's data plane accepts and
// POST /epoch fails (README.md, "Defects found while sizing").
const restRate = 0.5
