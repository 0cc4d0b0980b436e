package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// runCompare runs two sides — two checkouts, such as a parent commit and
// its change, or two copies of one commit — in alternating pairs on the
// same seeds, and reports per (workload, metric) each side's median and
// quartiles, the share of pairs side B won, and a verdict:
//
//	gain        B won at least 9 of 10 pairs and the medians differ by more
//	            than A's own quartile distance
//	regression  B's median is worse than A's by more than the bound
//	unresolved  a side's quartile distance exceeds the bound and B does not
//	            read better than A on every run
//	within      none of the above
//
// Pair i runs seed+i on both sides, A first on even pairs and B first on
// odd ones. Every run's correctness gate must pass and both sides must
// print the same decision fingerprint on each seed; otherwise the compare
// exits 1.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "checkout of side A (the parent)")
	b := fs.String("b", "", "checkout of side B (the change)")
	wl := fs.String("workloads", "metro,tenant-churn,rest-durable", "comma-separated workloads")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload")
	seconds := fs.Int("seconds", 25, "--seconds of every run")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "e2ebench compare: need --a DIR --b DIR and --pairs ≥ 1")
		return 2
	}
	status := 0
	for _, w := range strings.Split(*wl, ",") {
		if _, ok := workloadByName(w); !ok {
			fmt.Fprintf(stderr, "e2ebench compare: unknown workload %q\n", w)
			return 2
		}
		var ra, rb []runOut
		for i := 0; i < *pairs; i++ {
			s := *seed + int64(i)
			first, second := *a, *b
			if i%2 == 1 {
				first, second = second, first
			}
			x := runSide(first, w, s, *seconds)
			y := runSide(second, w, s, *seconds)
			if i%2 == 1 {
				x, y = y, x
			}
			for _, r := range []struct {
				name string
				out  runOut
			}{{"A", x}, {"B", y}} {
				if r.out.err != nil {
					fmt.Fprintf(stderr, "e2ebench compare: %s %s seed %d: %v\n", w, r.name, s, r.out.err)
					status = 1
				}
			}
			if x.err == nil && y.err == nil && x.fp != y.fp {
				fmt.Fprintf(stderr, "e2ebench compare: %s seed %d: fingerprints differ: A %s, B %s\n", w, s, x.fp, y.fp)
				status = 1
			}
			ra, rb = append(ra, x), append(rb, y)
			fmt.Fprintf(stderr, "e2ebench compare: %s pair %d/%d done\n", w, i+1, *pairs)
		}
		report(stdout, w, ra, rb)
	}
	return status
}

// runOut is one benchmark run as the compare mode reads it.
type runOut struct {
	metrics map[string]float64
	fp      string
	err     error
}

// runSide runs the benchmark of the checkout at dir once.
func runSide(dir, w string, seed int64, seconds int) runOut {
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return runOut{err: fmt.Errorf("%v: %s", err, lastLine(errb.String()))}
	}
	return parseRun(out.String())
}

// parseRun reads a run's standard output: the fingerprint line, the line
// of every end-to-end metric, and the final result line.
func parseRun(out string) runOut {
	r := runOut{metrics: map[string]float64{}}
	var res result
	if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil {
		return runOut{err: fmt.Errorf("result line: %v", err)}
	}
	if !res.Correct {
		return runOut{err: fmt.Errorf("correctness gate failed")}
	}
	for _, l := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(l, "# fingerprint "); ok {
			r.fp = strings.Fields(rest)[0]
		}
		if rest, ok := strings.CutPrefix(l, "# all-e2e "); ok {
			var ms map[string]metric
			if err := json.Unmarshal([]byte(rest), &ms); err != nil {
				return runOut{err: fmt.Errorf("all-e2e line: %v", err)}
			}
			for k, m := range ms {
				r.metrics[k] = m.Value
			}
		}
	}
	return r
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// report prints one workload's comparison table.
func report(w io.Writer, workload string, ra, rb []runOut) {
	fmt.Fprintf(w, "## %s (%d pairs)\n", workload, len(ra))
	var raw []string
	fmt.Fprintf(w, "%-18s %-6s %-30s %-30s %-6s %-6s %s\n", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "B won", "spread", "verdict")
	for _, d := range e2eDefs {
		if !d.appliesTo(workload) || d.bound == 0 {
			continue
		}
		var xs, ys []float64
		wins, n := 0, 0
		for i := range ra {
			x, okx := ra[i].metrics[d.name]
			y, oky := rb[i].metrics[d.name]
			if ra[i].err != nil || rb[i].err != nil || !okx || !oky {
				continue
			}
			xs, ys = append(xs, x), append(ys, y)
			n++
			if better(d, y, x) {
				wins++
			}
		}
		if n == 0 {
			continue
		}
		sa, sb := spread(xs), spread(ys)
		fmt.Fprintf(w, "%-18s %-6.2f %-30s %-30s %-6s %-6s %s\n", d.name, d.bound, quartiles(xs), quartiles(ys),
			fmt.Sprintf("%d/%d", wins, n), fmt.Sprintf("%.3f", math.Max(sa, sb)), verdict(d, xs, ys, wins))
		raw = append(raw, fmt.Sprintf("# runs %s %s A %v B %v", workload, d.name, xs, ys))
	}
	for _, l := range raw {
		fmt.Fprintln(w, l)
	}
}

// better reports whether x reads better than y under d's direction.
func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(median(xs))
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// verdict applies the paired-run rules to A's runs xs and B's runs ys, of
// which B won wins pairs.
func verdict(d metricDef, xs, ys []float64, wins int) string {
	ma, mb := median(xs), median(ys)
	allBetter := true
	for _, y := range ys {
		for _, x := range xs {
			if !better(d, y, x) {
				allBetter = false
			}
		}
	}
	worse := mb - ma
	if d.better == "higher" {
		worse = ma - mb
	}
	switch {
	case float64(wins) >= 0.9*float64(len(xs)) && math.Abs(mb-ma) > quantile(xs, 0.75)-quantile(xs, 0.25):
		return "gain"
	case (spread(xs) > d.bound || spread(ys) > d.bound) && !allBetter:
		return "unresolved"
	case worse > d.bound*math.Abs(ma):
		return "regression"
	}
	return "within"
}
