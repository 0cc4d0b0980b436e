package main

import (
	"math"
	"strings"
	"time"
)

// metricDef names one reported metric. gated marks the end-to-end metrics
// BENCHMARK.json lists with their bounds: every workload reports them and
// they stay steady across seeds and across minutes of host-speed drift.
// The timing metrics are compared by the compare mode, whose alternating
// pairs cancel that drift (README.md, "Why timings are not gated").
type metricDef struct {
	name, unit, better string
	bound              float64
	gated              bool
	workloads          string // comma-separated; empty = every workload
}

func (d metricDef) appliesTo(w string) bool {
	if d.workloads == "" {
		return true
	}
	for _, x := range strings.Split(d.workloads, ",") {
		if x == w {
			return true
		}
	}
	return false
}

const (
	churnAndREST = "tenant-churn,rest-durable"
	restOnly     = "rest-durable"
)

var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "realized_revenue", unit: "units", better: "higher", bound: 0.2, gated: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, gated: true},
	{name: "epoch_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "epoch_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rounds_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "decision_p50_ms", unit: "ms", better: "lower", bound: 0.25, workloads: churnAndREST},
	{name: "decision_p90_ms", unit: "ms", better: "lower", bound: 0.25, workloads: churnAndREST},
	{name: "decisions_per_s", unit: "1/s", better: "higher", bound: 0.25, workloads: churnAndREST},
	{name: "submit_p99_ms", unit: "ms", better: "lower", bound: 0.25, workloads: restOnly},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25, workloads: restOnly},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25, workloads: restOnly},
	{name: "failed_frac", unit: "ratio", better: "lower"},
}

// endToEnd computes the workload's end-to-end metrics over its untraced
// episodes. Timings pool every episode's steady samples; setup_s and
// recover_s are medians over episodes.
func endToEnd(w workload, eps []*episode) map[string]metric {
	var setups, recovers []float64
	var epochs, decisions, submits, reads []time.Duration
	var steady time.Duration
	rounds, decided, attempted, failed := 0, 0, 0, 0
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		attempted += ep.attempted
		failed += ep.failed
		if ep.setupOnly {
			continue
		}
		recovers = append(recovers, ep.recover.Seconds())
		epochs = append(epochs, ep.epochs...)
		decisions = append(decisions, ep.decisions...)
		submits = append(submits, ep.submits...)
		reads = append(reads, ep.reads...)
		steady += ep.steady
		rounds += ep.rounds
		decided += len(ep.decisions)
	}
	val := map[string]float64{
		"setup_s":          median(setups),
		"epoch_p50_ms":     quantile(ms(epochs), 0.5),
		"epoch_p90_ms":     quantile(ms(epochs), 0.9),
		"rounds_per_s":     float64(rounds) / steady.Seconds(),
		"realized_revenue": revenue(eps, w.episodes),
		"peak_rss_mb":      peakRSSMB(),
		"decision_p50_ms":  quantile(ms(decisions), 0.5),
		"decision_p90_ms":  quantile(ms(decisions), 0.9),
		"decisions_per_s":  float64(decided) / steady.Seconds(),
		"submit_p99_ms":    quantile(ms(submits), 0.99),
		"read_p50_ms":      quantile(ms(reads), 0.5),
		"recover_s":        median(recovers),
		"failed_frac":      failedFrac(attempted, failed),
	}
	out := map[string]metric{}
	for _, d := range e2eDefs {
		if d.appliesTo(w.name) {
			out[d.name] = metric{val[d.name], d.unit}
		}
	}
	return out
}

// perLayerDefs are the traced run's metrics. Every workload reports every
// one; a layer a workload bypasses reads 0 (README.md maps each metric to
// the workloads that exercise it).
var perLayerDefs = []metricDef{
	{name: "core.solve_cold_ms", unit: "ms"},
	{name: "core.solve_warm_p50_ms", unit: "ms"},
	{name: "core.solve_warm_p90_ms", unit: "ms"},
	{name: "core.benders_iters_mean", unit: "count"},
	{name: "core.benders_iters_max", unit: "count"},
	{name: "core.fresh_per_round", unit: "count"},
	{name: "core.carried_cuts", unit: "count"},
	{name: "core.fallback_frac", unit: "ratio"},
	{name: "core.verified", unit: "count"},
	{name: "wal.sync_p50_ms", unit: "ms"},
	{name: "wal.sync_p90_ms", unit: "ms"},
	{name: "wal.syncs_per_round", unit: "count"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.bytes_per_epoch", unit: "B"},
	{name: "wal.replayed_rounds", unit: "count"},
	{name: "wal.replayed_records", unit: "count"},
	{name: "reopt.step_p50_ms", unit: "ms"},
	{name: "reopt.step_p90_ms", unit: "ms"},
	{name: "reopt.step_self_ms", unit: "ms"},
	{name: "reopt.rescaled_per_step", unit: "count"},
	{name: "monitor.add_ms_per_epoch", unit: "ms"},
	{name: "admission.add_domain_ms", unit: "ms"},
	{name: "admission.submit_p50_us", unit: "us"},
	{name: "admission.submit_p99_us", unit: "us"},
	{name: "admission.batch_mean", unit: "count"},
	{name: "admission.fast_rejected", unit: "count"},
	{name: "admission.shed", unit: "count"},
	{name: "ctrlplane.epoch_self_ms", unit: "ms"},
	{name: "ctrlplane.epoch_resp_kb", unit: "KiB"},
	{name: "ctrlplane.get_slices_ms", unit: "ms"},
	{name: "ctrlplane.http_errors", unit: "count"},
	{name: "southbound.calls_per_epoch", unit: "count"},
	{name: "southbound.ms_per_epoch", unit: "ms"},
	{name: "runtime.alloc_kb_per_round", unit: "KiB"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "trace.setup_s", unit: "s"},
	{name: "trace.epoch_p50_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.spans_per_epoch", unit: "count"},
}

// perLayer computes the per-layer metrics from the traced episodes' spans;
// the untraced episodes give the base of the tracing overhead.
func perLayer(traced, untraced []*episode) map[string]metric {
	v := map[string]float64{}
	var (
		cold, addDomain, monitorAdd            float64
		warm, syncs, appends, steps, stepSelf  []float64
		submits, epochSelf, getSlices, epochKB []float64
		iters, fresh, cuts                     []float64
		solves, fallbacks, sbCalls, nSpans     int
		sbMs, walBytes, allocKB, gcMs          float64
		steadyEpochs, rounds, rescaled         int
		setups, tracedEpochs                   []float64
		httpErrors, replRounds, replRecords    int
		allRounds                              int
		batch, fastRej, shed                   float64
	)
	for _, ep := range traced {
		spans := ep.tr.closed()
		nSpans += len(spans)
		byParent := map[int64][]interval{}
		for _, s := range spans {
			if s.Parent != 0 {
				byParent[s.Parent] = append(byParent[s.Parent], s.interval())
			}
		}
		n := len(ep.epochs)
		steadyEpochs += n
		rounds += ep.rounds
		rescaled += ep.rescaled
		setups = append(setups, ep.setup.Seconds())
		tracedEpochs = append(tracedEpochs, ms(ep.epochs)...)
		for _, s := range spans {
			d := float64(s.dur()) / 1e6
			switch {
			case s.Layer == "core":
				solves++
				if s.Cold {
					cold += d
				} else {
					warm = append(warm, d)
				}
				iters = append(iters, float64(s.Iters))
				fresh = append(fresh, float64(s.Fresh))
				cuts = append(cuts, float64(s.Cuts))
				if s.Fallback {
					fallbacks++
				}
			case s.Layer == "wal" && s.Name == "sync":
				syncs = append(syncs, d)
			case s.Layer == "wal":
				appends = append(appends, d*1e3)
			case s.Layer == "reopt" && s.Epoch == 0:
				allRounds++
			case s.Layer == "reopt":
				allRounds++
				steps = append(steps, d)
				stepSelf = append(stepSelf, float64(selfTime(s.interval(), byParent[s.ID]))/1e6)
			case s.Layer == "monitor" && s.Epoch > 0:
				monitorAdd += d
			case s.Layer == "admission" && s.Name == "add_domain":
				addDomain += d
			case s.Layer == "admission" && s.Name == "submit",
				s.Layer == "ctrlplane" && s.Name == "POST /requests":
				submits = append(submits, d*1e3)
			case s.Layer == "ctrlplane" && s.Name == "POST /epoch":
				allRounds++
				if s.Epoch > 0 {
					epochSelf = append(epochSelf, float64(selfTime(s.interval(), byParent[s.ID]))/1e6)
					epochKB = append(epochKB, float64(s.Bytes)/1024)
				}
			case s.Layer == "ctrlplane" && s.Name == "GET /slices":
				getSlices = append(getSlices, d)
			case s.Layer == "southbound" && s.Epoch > 0:
				sbCalls++
				sbMs += d
			}
			if (s.Layer == "ctrlplane" || s.Layer == "southbound") && s.Status/100 != 2 {
				httpErrors++
			}
		}
		walBytes += float64(ep.walBytes) / float64(n+1)
		allocKB += float64(ep.runtime.totalAlloc) / 1024
		gcMs += float64(ep.runtime.pauseNs) / 1e6
		replRounds += ep.replayedRounds
		replRecords += ep.replayedRecords
		batch += ep.batchMean
		fastRej += float64(ep.fastRejected)
		shed += float64(ep.shed)
	}
	eps := float64(len(traced))
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	or0 := func(x float64) float64 {
		if math.IsNaN(x) {
			return 0
		}
		return x
	}
	v["core.solve_cold_ms"] = cold / eps
	v["core.solve_warm_p50_ms"] = or0(quantile(warm, 0.5))
	v["core.solve_warm_p90_ms"] = or0(quantile(warm, 0.9))
	v["core.benders_iters_mean"] = or0(mean(iters))
	v["core.benders_iters_max"] = or0(maxOf(iters))
	v["core.fresh_per_round"] = or0(mean(fresh))
	v["core.carried_cuts"] = or0(mean(cuts))
	v["core.fallback_frac"] = per(float64(fallbacks), solves)
	v["core.verified"] = float64(solves)
	v["wal.sync_p50_ms"] = or0(quantile(syncs, 0.5))
	v["wal.sync_p90_ms"] = or0(quantile(syncs, 0.9))
	v["wal.syncs_per_round"] = per(float64(len(syncs)), allRounds)
	v["wal.append_us"] = or0(mean(appends))
	v["wal.bytes_per_epoch"] = walBytes / eps
	v["wal.replayed_rounds"] = float64(replRounds) / eps
	v["wal.replayed_records"] = float64(replRecords) / eps
	v["reopt.step_p50_ms"] = or0(quantile(steps, 0.5))
	v["reopt.step_p90_ms"] = or0(quantile(steps, 0.9))
	v["reopt.step_self_ms"] = or0(mean(stepSelf))
	v["reopt.rescaled_per_step"] = per(float64(rescaled), len(steps))
	v["monitor.add_ms_per_epoch"] = per(monitorAdd, steadyEpochs)
	v["admission.add_domain_ms"] = addDomain / eps
	v["admission.submit_p50_us"] = or0(quantile(submits, 0.5))
	v["admission.submit_p99_us"] = or0(quantile(submits, 0.99))
	v["admission.batch_mean"] = batch / eps
	v["admission.fast_rejected"] = fastRej / eps
	v["admission.shed"] = shed / eps
	v["ctrlplane.epoch_self_ms"] = or0(mean(epochSelf))
	v["ctrlplane.epoch_resp_kb"] = or0(mean(epochKB))
	v["ctrlplane.get_slices_ms"] = or0(mean(getSlices))
	v["ctrlplane.http_errors"] = float64(httpErrors)
	v["southbound.calls_per_epoch"] = per(float64(sbCalls), steadyEpochs)
	v["southbound.ms_per_epoch"] = per(sbMs, steadyEpochs)
	v["runtime.alloc_kb_per_round"] = per(allocKB, rounds)
	v["runtime.gc_pause_ms"] = per(gcMs, steadyEpochs)
	v["trace.setup_s"] = median(setups)
	v["trace.epoch_p50_ms"] = median(tracedEpochs)
	var base []float64
	for _, ep := range untraced {
		base = append(base, ms(ep.epochs)...)
	}
	v["trace.overhead_pct"] = or0((median(tracedEpochs)/median(base) - 1) * 100)
	v["trace.spans_per_epoch"] = per(float64(nSpans), steadyEpochs+len(traced))
	out := map[string]metric{}
	for _, d := range perLayerDefs {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// revenue is the mean realized revenue of the run's first n episodes,
// whose seeds are fixed by the run's seed, so it does not depend on how
// many episodes the host fit into the run.
func revenue(eps []*episode, n int) float64 {
	var rs []float64
	for _, ep := range eps {
		if !ep.setupOnly && len(rs) < n {
			rs = append(rs, ep.revenue)
		}
	}
	return mean(rs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}
