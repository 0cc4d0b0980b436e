package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n, 10); p > 0 && c.n*(1000-int(p*10+0.5)) < 10*1000 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 50}}, 80},
		{"overlapping", []interval{{10, 20}, {15, 30}}, 80},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out", []interval{{-5, 2}, {90, 120}}, 88},
		{"outside", []interval{{100, 120}, {-10, 0}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFailedFracCountsEveryFailedOperation(t *testing.T) {
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac(0, 0) = %v, want 0", got)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		case "/boom":
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"status":"pending"}`)) //nolint:errcheck // test server
		}
	}))
	defer srv.Close()
	cl := newRESTClient()
	for _, p := range []string{"/ok", "/shed", "/ok", "/boom"} {
		cl.do(http.MethodPost, srv.URL+p, map[string]int{"x": 1}, nil) //nolint:errcheck // counted
	}
	if cl.attempted != 4 || cl.failed != 2 {
		t.Fatalf("client counted attempted=%d failed=%d, want 4 and 2", cl.attempted, cl.failed)
	}
	// Set-up-only episodes count too: every attempted operation is in the
	// denominator.
	w, _ := workloadByName("rest-durable")
	eps := []*episode{
		{attempted: cl.attempted, failed: cl.failed, epochs: []time.Duration{time.Millisecond}, steady: time.Second},
		{attempted: 4, failed: 0, setupOnly: true},
	}
	if got := endToEnd(w, eps)["failed_frac"].Value; got != 0.25 {
		t.Errorf("failed_frac = %v, want 2/8", got)
	}
}

func TestChurnArrivalsDeterministicWithoutEndDump(t *testing.T) {
	a, err := churnArrivals(7, "op0", 400, 1, 2, "uRLLC", "eMBB", "mMTC")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := churnArrivals(7, "op0", 400, 1, 2, "uRLLC", "eMBB", "mMTC")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different arrivals")
	}
	c, _ := churnArrivals(8, "op0", 400, 1, 2, "uRLLC", "eMBB", "mMTC")
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same arrivals")
	}
	// A shorter run is a prefix of a longer one: nothing is held back for
	// the last epoch.
	short, _ := churnArrivals(7, "op0", 50, 1, 2, "uRLLC", "eMBB", "mMTC")
	if !reflect.DeepEqual(short, a[:50]) {
		t.Fatal("a 50-epoch draw is not the prefix of the 400-epoch draw")
	}
	total, most := 0, 0
	for _, ep := range a {
		total += len(ep)
		most = max(most, len(ep))
	}
	if last := len(a[len(a)-1]); last > most || last > 6 {
		t.Fatalf("last epoch holds %d arrivals (busiest epoch %d)", last, most)
	}
	if mean := float64(total) / float64(len(a)); mean < 0.85 || mean > 1.15 {
		t.Fatalf("mean arrivals per epoch %.3f, want about 1", mean)
	}
	types := map[string]int{}
	for _, ep := range a {
		for _, o := range ep {
			types[o.spec.Template.Type.String()]++
			if o.req.SLA.Duration != 2 || o.req.Domain != "op0" {
				t.Fatalf("arrival %s: duration %d domain %q", o.spec.Name, o.req.SLA.Duration, o.req.Domain)
			}
		}
	}
	if types["uRLLC"] < types["eMBB"] || types["eMBB"] == 0 || types["mMTC"] == 0 {
		t.Fatalf("class mix %v does not follow the metro weights 2:1:1", types)
	}
}

// TestFingerprintShardInvariance pins the property the correctness gate
// rests on: the same inputs decide the same at one shard and at nproc
// shards, and the traced run (solves through the traced executor, WAL
// through the traced log) decides exactly what the untraced run does.
func TestFingerprintShardInvariance(t *testing.T) {
	dir := t.TempDir()
	shards := max(2, runtime.NumCPU())
	digest := func(run int, tr *tracer) string {
		p, err := churnDeployment(3, 12, shards, filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		ep, err := p.run(run, tr)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil && len(tr.faults) > 0 {
			t.Fatalf("traced run raised %v", tr.faults)
		}
		if len(ep.epochs) != 12 || ep.failed != 0 {
			t.Fatalf("episode ran %d steady epochs with %d failures", len(ep.epochs), ep.failed)
		}
		return ep.fp.digest()
	}
	one := digest(1, nil)
	if many := digest(shards, nil); many != one {
		t.Fatalf("fingerprint at %d shards %s != at 1 shard %s", shards, many, one)
	}
	tr := newTracer()
	if traced := digest(shards, tr); traced != one {
		t.Fatalf("traced fingerprint %s != untraced %s", traced, one)
	}
	solves := 0
	for _, s := range tr.closed() {
		if s.Layer == "core" {
			solves++
		}
	}
	if solves == 0 {
		t.Fatal("the traced run recorded no solve spans")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "x_ms", better: "lower", bound: 0.1}
	same := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	faster := make([]float64, len(same))
	slower := make([]float64, len(same))
	for i, v := range same {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	noisy := []float64{5, 15, 8, 13, 10, 6, 14, 9, 11, 12}
	for _, c := range []struct {
		name   string
		a, b   []float64
		wins   int
		expect string
	}{
		{"same code", same, same, 3, "within"},
		{"faster", same, faster, 10, "gain"},
		{"slower", same, slower, 0, "regression"},
		{"noisy", same, noisy, 5, "unresolved"},
	} {
		if got := verdict(lower, c.a, c.b, c.wins); got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "# e2ebench workload=metro\n# fingerprint 0123abcd (matches the recorded value)\n" +
		`# all-e2e {"setup_s":{"value":1.5,"unit":"s"},"recover_s":{"value":0.002,"unit":"s"}}` + "\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n"
	r := parseRun(out)
	if r.err != nil || r.fp != "0123abcd" || r.metrics["setup_s"] != 1.5 || r.metrics["recover_s"] != 0.002 {
		t.Fatalf("parseRun = %+v", r)
	}
	bad := parseRun(`{"correct":false,"attempted":3,"failed":1,"metrics":{}}`)
	if bad.err == nil {
		t.Fatal("a failed correctness gate parsed as a result")
	}
}

// TestBenchmarkJSONMatchesDefs keeps the repository's BENCHMARK.json and
// the metric tables here in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var gated []m
	for _, d := range e2eDefs {
		if d.gated {
			gated = append(gated, m{d.name, d.unit, d.better, d.bound})
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, gated) {
		t.Errorf("BENCHMARK.json end_to_end %v != gated e2eDefs %v", b.EndToEnd, gated)
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perLayerDefs %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, d.name, d.unit)
		}
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, not the benchmark's", i, w.Name)
		}
	}
}
