package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/topology"
)

func testDomainConfig() admission.DomainConfig {
	return admission.DomainConfig{Net: topology.Testbed(), Algorithm: "direct"}
}

func testTenants() []core.TenantSpec {
	sla := slice.SLA{Template: slice.Table1(slice.EMBB).WithStd(10), MeanMbps: 15, Duration: 3}
	return []core.TenantSpec{
		{Name: "t0", SLA: sla, LambdaHat: sla.RateMbps, Sigma: 1},
		{Name: "t1", SLA: sla, LambdaHat: sla.RateMbps, Sigma: 1},
	}
}

// blackHoleWorker joins the cluster correctly but swallows every round it
// is sent — the shape of a worker that hangs (or is SIGKILLed after
// receiving a dispatch but before replying). roundSeen fires once when
// the first round lands.
func blackHoleWorker(t *testing.T, c *Coordinator, id string) (roundSeen <-chan struct{}, kill func()) {
	t.Helper()
	server, client := net.Pipe()
	c.AddConn(server)
	seen := make(chan struct{})
	go func() {
		if err := joinByHand(client, id); err != nil {
			return
		}
		fired := false
		for {
			msg, err := readFrame(client)
			if err != nil {
				return
			}
			if msg.Type == MsgRound && !fired {
				fired = true
				close(seen)
			}
		}
	}()
	return seen, func() {
		server.Close()
		client.Close()
	}
}

// TestInFlightRoundRedispatchedOnWorkerLoss pins the rebalance contract
// at its sharpest point: a round already dispatched to a worker that
// dies without replying is re-dispatched to the surviving worker and
// still yields the exact decision a local solve produces — no loss, no
// reorder, no divergence.
func TestInFlightRoundRedispatchedOnWorkerLoss(t *testing.T) {
	dc := testDomainConfig()
	tenants := testTenants()

	// Pick a seed under which the black hole owns the domain, so the
	// first dispatch is guaranteed to hit the worker that will die.
	seed := uint64(0)
	for ; ; seed++ {
		owner, _ := placeDomain(seed, admission.DefaultDomain, []string{"blackhole", "real"})
		if owner == "blackhole" {
			break
		}
	}

	coord := NewCoordinator(CoordinatorOptions{
		Seed:             seed,
		Log:              testLogger(t),
		HeartbeatTimeout: time.Minute, // the kill below is explicit
		DispatchTimeout:  30 * time.Second,
	})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	stopReal := StartLoopbackWorker(coord, "real", testLogger(t))
	defer stopReal()
	roundSeen, kill := blackHoleWorker(t, coord, "blackhole")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if owner, _ := coord.OwnerOf(admission.DefaultDomain); owner != "blackhole" {
		t.Fatalf("setup: expected blackhole to own the domain, got %q", owner)
	}

	type result struct {
		dec *core.Decision
		err error
	}
	done := make(chan result, 1)
	go func() {
		dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, tenants)
		done <- result{dec, err}
	}()

	select {
	case <-roundSeen:
	case <-time.After(10 * time.Second):
		t.Fatal("round never reached the black-hole worker")
	}
	kill() // the worker dies with the round in flight

	var got result
	select {
	case got = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SolveRound did not return after worker loss")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if owner, _ := coord.OwnerOf(admission.DefaultDomain); owner != "real" {
		t.Fatalf("domain did not rebalance to the survivor, owner=%q", owner)
	}

	// The reference: the identical pure solve, no cluster anywhere.
	spec, err := NewDomainSpec("", dc)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := spec.solver()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sol.Solve(nil, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.dec, want) {
		t.Fatalf("re-dispatched decision diverged:\n got: %+v\nwant: %+v", got.dec, want)
	}
}

// TestSolveRoundFallsBackLocallyWithNoWorkers pins the degraded mode: a
// coordinator with zero live workers hands every round back to the
// engine (admission.ErrSolveLocally) instead of solving it itself, and an
// engine whose executor is that coordinator decides exactly what a plain
// in-process engine decides — losing the whole worker fleet degrades
// throughput, never correctness.
func TestSolveRoundFallsBackLocallyWithNoWorkers(t *testing.T) {
	spec := ciSized(archetypeByName(t, "outage"))
	cfg, err := spec.Compile(42)
	if err != nil {
		t.Fatal(err)
	}
	dc := admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: spec.Algorithm}
	coord := NewCoordinator(CoordinatorOptions{Log: testLogger(t)})
	defer coord.Close()
	if err := coord.RegisterDomain("", dc); err != nil {
		t.Fatal(err)
	}
	dec, err := coord.SolveRound(admission.DefaultDomain, 1, nil, testTenants())
	if !errors.Is(err, admission.ErrSolveLocally) || dec != nil {
		t.Fatalf("SolveRound with no workers: dec=%v err=%v, want admission.ErrSolveLocally", dec, err)
	}

	reqs := requestsOf(cfg)
	want := engineReplay(t, cfg, reqs, dc, spec.ReofferPending, nil)
	if anyRoundFailed(want) {
		t.Fatalf("setup: a round failed in-process:\n%s", strings.Join(want, "\n"))
	}
	dc.Executor = coord
	got := engineReplay(t, cfg, reqs, dc, spec.ReofferPending, nil)
	if diff := firstDiff(want, got); diff != "" {
		t.Fatalf("engine with a workerless coordinator diverged:\n%s", diff)
	}
}

// TestHeartbeatTimeoutRemovesSilentWorker pins liveness: a worker that
// stops sending frames (without its conn dying) is swept out after
// HeartbeatTimeout and the membership watch fires.
func TestHeartbeatTimeoutRemovesSilentWorker(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{
		Log:              testLogger(t),
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	defer coord.Close()

	server, client := net.Pipe()
	coord.AddConn(server)
	// Join by hand, then go silent: no pings, conn held open.
	go func() {
		if err := joinByHand(client, "mute"); err != nil {
			return
		}
		for {
			if _, err := readFrame(client); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for len(coord.Members()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker still a member after heartbeat timeout: %v", coord.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
