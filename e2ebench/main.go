// Command e2ebench is the repository's outside-in benchmark. It drives the
// closed loop through the public APIs of internal/admission, reopt,
// ctrlplane and wal, checks the decisions it gets back, and prints the
// end-to-end metrics of one workload:
//
//	e2ebench --workload metro|tenant-churn|rest-durable|all --seed N --seconds S --trace 0|1
//	e2ebench compare --a DIR --b DIR [--workloads ...] [--pairs 10] [--seconds S]
//
// A run is a series of episodes (set-up, cold epoch, steady epochs), each
// on inputs drawn from a seed derived from N, until S seconds have passed
// and the workload's least number of episodes and minEpochs steady epochs
// are in hand. --trace 1 runs every episode seed untraced and then traced
// and prints the per-layer metrics of the traced episodes, with the
// tracing overhead against the untraced ones.
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Any correctness failure prints no metrics and exits 1.
// README.md in this directory documents workloads, metrics and modes.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	minTracedPairs = 1   // untraced+traced episode pairs per traced run
	minEpochs      = 100 // pooled steady epochs, so p90 has ≥10 beyond it
	minSetups      = 21  // set-ups timed per run when they are cheap
	cheapSetup     = time.Second
	budget         = 150 * time.Second // no episode starts that would end past it
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name        string
	defaultSeed int64
	epochs      int // steady epochs per episode
	// episodes is the least number of untraced episodes a run holds; the
	// revenue and the recorded fingerprint cover exactly these.
	episodes int
	run      func(seed int64, epochs, shards int, dir string, tr *tracer) (*episode, error)
}

var workloads = []workload{
	{name: "metro", defaultSeed: 1, epochs: 100, episodes: 1, run: func(seed int64, epochs, shards int, _ string, tr *tracer) (*episode, error) {
		p, err := metroDeployment(seed, epochs)
		if err != nil {
			return nil, err
		}
		return p.run(shards, tr)
	}},
	{name: "tenant-churn", defaultSeed: 1, epochs: 100, episodes: 10, run: func(seed int64, epochs, shards int, dir string, tr *tracer) (*episode, error) {
		p, err := churnDeployment(seed, epochs, shards, filepath.Join(dir, "wal"))
		if err != nil {
			return nil, err
		}
		return p.run(shards, tr)
	}},
	{name: "rest-durable", defaultSeed: 1, epochs: 400, episodes: 5, run: func(seed int64, epochs, _ int, dir string, tr *tracer) (*episode, error) {
		return runREST(seed, epochs, filepath.Join(dir, "data"), tr)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// episode is what one pass over a workload's inputs measured.
type episode struct {
	setup       time.Duration   // run start → end of the cold epoch
	epochs      []time.Duration // steady epoch wall times
	decisions   []time.Duration // submission → decision visible, steady epochs
	submits     []time.Duration // POST /requests acks (REST)
	reads       []time.Duration // GET /slices (REST)
	recover     time.Duration   // NewOrchestrator after Abort (REST)
	seed        int64           // the episode's input seed
	setupOnly   bool            // ran only the set-up and the cold epoch
	steadyStart time.Time
	steady      time.Duration // post-setup wall time
	rounds      int           // domain rounds in the steady epochs
	rescaled    int
	revenue     float64
	attempted   int
	failed      int

	batchMean          float64
	fastRejected, shed int
	walBytes           int64
	replayedRounds     int
	replayedRecords    int
	epochRespBytes     []int
	httpErrors         int
	runtime            runtimeStats
	fp                 *fingerprint
	tr                 *tracer
	faults             []string // correctness failures besides fingerprints
}

// runtimeStats is the Go runtime's allocation and GC account, read only in
// traced episodes (ReadMemStats stops the world).
type runtimeStats struct{ totalAlloc, pauseNs uint64 }

func readRuntime(tr *tracer) runtimeStats {
	if tr == nil {
		return runtimeStats{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{m.TotalAlloc, m.PauseTotalNs}
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{a.totalAlloc - b.totalAlloc, a.pauseNs - b.pauseNs}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed baseline.json
var baselineJSON []byte

// baseline holds the decision fingerprints recorded for each workload's
// seeds: a run on a recorded seed must reproduce its fingerprint.
type baseline struct {
	Fingerprints map[string]map[string]string `json:"fingerprints"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "metro | tenant-churn | rest-durable | all (one after another)")
	seed := fs.Int64("seed", 0, "input seed (0 = the workload's default)")
	seconds := fs.Int("seconds", 25, "measure for at least this long")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *wname != "all" {
		ws = nil
		if w, ok := workloadByName(*wname); ok {
			ws = []workload{w}
		}
	}
	if len(ws) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload metro|tenant-churn|rest-durable|all, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	var base baseline
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		fmt.Fprintf(stderr, "e2ebench: baseline.json: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range ws {
		s := *seed
		if s == 0 {
			s = w.defaultSeed
		}
		status = max(status, runWorkload(w, s, *seconds, *trace == 1, base, stdout, stderr))
	}
	return status
}

// runWorkload runs one workload and prints its report; the last line is
// the result object. It returns the process exit code.
func runWorkload(w workload, seed int64, seconds int, traced bool, base baseline, stdout, stderr io.Writer) int {
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	shards := runtime.NumCPU()
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%d traced=%t nproc=%d fs=%s %s\n",
		w.name, seed, seconds, traced, shards, fsType(work), runtime.Version())
	eps, err := runEpisodes(w, seed, seconds, traced, shards, work)
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	for _, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}
	faults := checkEpisodes(w.name, seed, eps, base)
	if err != nil {
		faults = append(faults, err.Error())
	}
	if len(faults) > 0 {
		res.Correct = false
		for _, f := range faults {
			fmt.Fprintf(stderr, "e2ebench: correctness: %s\n", f)
		}
		printResult(stdout, res)
		return 1
	}
	fmt.Fprintf(stdout, "# fingerprint %s", eps[0].fp.digest())
	if rec := base.Fingerprints[w.name][strconv.FormatInt(seed, 10)]; rec != "" {
		fmt.Fprintf(stdout, " (matches the recorded value)")
	}
	fmt.Fprintln(stdout)
	for _, ep := range eps {
		if ep.setupOnly {
			continue
		}
		fmt.Fprintf(stdout, "# episode seed=%d traced=%t fingerprint=%s setup=%.4gs epochs=%d\n",
			ep.seed, ep.tr != nil, ep.fp.digest(), ep.setup.Seconds(), len(ep.epochs))
	}

	var untraced, tracedEps []*episode
	for _, ep := range eps {
		if ep.tr == nil {
			untraced = append(untraced, ep)
		} else {
			tracedEps = append(tracedEps, ep)
		}
	}
	e2e := endToEnd(w, untraced)
	printMetrics(stdout, "e2e", e2e)
	printTails(stdout, untraced)
	all, _ := json.Marshal(e2e)
	fmt.Fprintf(stdout, "# all-e2e %s\n", all)
	if traced {
		layers := perLayer(tracedEps, untraced)
		printMetrics(stdout, "layer", layers)
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, seed, os.Getpid()))
		if err := writeSpans(spans, tracedEps); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", spans)
		for _, d := range perLayerDefs {
			res.Metrics[d.name] = layers[d.name]
		}
	} else {
		for _, d := range e2eDefs {
			if d.gated {
				res.Metrics[d.name] = e2e[d.name]
			}
		}
	}
	printResult(stdout, res)
	return 0
}

// runEpisodes runs episodes on the seeds episodeSeed derives from the
// run's seed until the run has measured long enough. A traced run runs
// every episode seed twice, untraced then traced, so the two can be
// checked against each other and see the same host state.
func runEpisodes(w workload, seed int64, seconds int, traced bool, shards int, dir string) ([]*episode, error) {
	start := time.Now()
	var eps []*episode
	steadyEpochs := 0
	var longest time.Duration // the slowest episode (pair, when traced) so far
	for k := 0; ; k++ {
		elapsed := time.Since(start)
		timeUp := elapsed >= time.Duration(seconds)*time.Second
		switch {
		case k > 0 && elapsed+longest > budget:
			// Another episode would overrun the run's time cap.
		case traced && k >= minTracedPairs && timeUp:
		case !traced && k >= w.episodes && timeUp && steadyEpochs >= minEpochs:
		default:
			passes := []*tracer{nil}
			if traced {
				passes = append(passes, newTracer())
			}
			es := time.Now()
			for _, tr := range passes {
				ep, err := w.run(episodeSeed(seed, k), w.epochs, shards, dir, tr)
				if ep != nil {
					ep.seed = episodeSeed(seed, k)
					eps = append(eps, ep)
				}
				if err != nil {
					return eps, fmt.Errorf("episode %d (seed %d): %w", k, episodeSeed(seed, k), err)
				}
				if tr == nil {
					steadyEpochs += len(ep.epochs)
				}
				runtime.GC()
			}
			longest = max(longest, time.Since(es))
			continue
		}
		break
	}
	// A set-up that takes milliseconds is measured again on its own, so
	// setup_s is a median over minSetups cold starts however few full
	// episodes the run held.
	var setups []float64
	for _, ep := range eps {
		if ep.tr == nil {
			setups = append(setups, ep.setup.Seconds())
		}
	}
	for k := len(eps); len(setups) < minSetups && median(setups) < cheapSetup.Seconds() && time.Since(start) < budget-cheapSetup; k++ {
		ep, err := w.run(episodeSeed(seed, k), 0, shards, dir, nil)
		if ep != nil {
			ep.seed, ep.setupOnly = episodeSeed(seed, k), true
			eps = append(eps, ep)
			setups = append(setups, ep.setup.Seconds())
		}
		if err != nil {
			return eps, fmt.Errorf("set-up %d (seed %d): %w", k, episodeSeed(seed, k), err)
		}
	}
	return eps, nil
}

// episodeSeed derives episode k's input seed from the run's seed. The
// stride keeps metro's per-pod seeds (seed+pod) of different episodes
// apart.
func episodeSeed(seed int64, k int) int64 { return seed*1000003 + int64(k)*101 }

// checkEpisodes is the correctness gate: a traced episode decided exactly
// what the untraced episode on the same seed decided, the first episode
// matches the fingerprint recorded for the run's seed, and no seam raised
// a fault.
func checkEpisodes(name string, seed int64, eps []*episode, base baseline) []string {
	if len(eps) == 0 {
		return []string{"no episode completed"}
	}
	var faults []string
	untraced := map[int64]*episode{}
	for _, ep := range eps {
		faults = append(faults, ep.faults...)
		if ep.tr == nil {
			untraced[ep.seed] = ep
			continue
		}
		faults = append(faults, ep.tr.faults...)
		u := untraced[ep.seed]
		if u == nil {
			continue
		}
		if got, want := ep.fp.digest(), u.fp.digest(); got != want {
			faults = append(faults, fmt.Sprintf("seed %d: traced fingerprint %s != untraced %s", ep.seed, got, want))
		}
		if ep.revenue != u.revenue {
			faults = append(faults, fmt.Sprintf("seed %d: traced realized revenue %v != untraced %v", ep.seed, ep.revenue, u.revenue))
		}
	}
	if rec := base.Fingerprints[name][strconv.FormatInt(seed, 10)]; rec != "" && rec != eps[0].fp.digest() {
		faults = append(faults, fmt.Sprintf("fingerprint %s != recorded %s for seed %d", eps[0].fp.digest(), rec, seed))
	}
	return faults
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	defs := e2eDefs
	if kind == "layer" {
		defs = perLayerDefs
	}
	for _, d := range defs {
		if m, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "%-5s %-28s %14.6g %s\n", kind, d.name, m.Value, m.Unit)
		}
	}
}

// printTails reports, for each latency sample of the run, its size and the
// highest percentile that still has ten samples beyond it.
func printTails(w io.Writer, eps []*episode) {
	var epochs, decisions, submits, reads []time.Duration
	for _, ep := range eps {
		epochs = append(epochs, ep.epochs...)
		decisions = append(decisions, ep.decisions...)
		submits = append(submits, ep.submits...)
		reads = append(reads, ep.reads...)
	}
	for _, d := range []struct {
		name string
		xs   []time.Duration
	}{{"epoch", epochs}, {"decision", decisions}, {"submit", submits}, {"read", reads}} {
		if len(d.xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "# tail %-8s n=%-6d p50=%.4g ms", d.name, len(d.xs), quantile(ms(d.xs), 0.5))
		if p := tailPercentile(len(d.xs), 10); p > 50 {
			fmt.Fprintf(w, " p%g=%.4g ms", p, quantile(ms(d.xs), p/100))
		}
		fmt.Fprintln(w)
	}
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil { // a NaN metric: report the run as unmeasured
		b = []byte(fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, res.Attempted, res.Failed))
	}
	fmt.Fprintf(w, "%s\n", b)
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// fsType names the file system under dir, for the run header: the durable
// workloads' fsyncs mean something only on a disk-backed one.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
