package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/admission"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// offer is one tenant arrival: the request the benchmark submits and the
// load its slice carries once admitted.
type offer struct {
	req  admission.Request
	spec sim.SliceSpec
}

// offerOf turns a compiled scenario tenant into a request, the way
// cmd/loadgen submits it.
func offerOf(domain string, sp sim.SliceSpec) offer {
	sla := slice.SLA{Template: sp.Template, MeanMbps: sp.MeanMbps, Duration: sp.Duration}.
		WithPenaltyFactor(sp.PenaltyFactor)
	return offer{req: admission.Request{Domain: domain, Name: sp.Name, SLA: sla}, spec: sp}
}

// churnArrivals draws one domain's arrivals for epochs epochs from its
// seed: Poisson(rate) requests per epoch, each living lifetime epochs,
// dealt by weight over the metro archetype's classes whose slice types
// are listed in types (uRLLC, eMBB, mMTC).
// Unlike scenario.Spec's Poisson compile there is no tenant budget, so
// nothing is held back and dumped into the last epoch: every epoch is one
// draw of the same process, and a longer run only appends epochs.
func churnArrivals(seed int64, domain string, epochs int, rate float64, lifetime int, types ...string) ([][]offer, error) {
	spec, err := scenario.ByName("metro")
	if err != nil {
		return nil, err
	}
	var classes []scenario.Class
	for _, c := range spec.Classes {
		for _, t := range types {
			if c.Type == t {
				classes = append(classes, c)
			}
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("no metro class of types %v", types)
	}
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]offer, epochs)
	for e := range out {
		for k := poisson(rng, rate); k > 0; k-- {
			pick, c := rng.Float64()*total, classes[len(classes)-1]
			for _, cl := range classes {
				if pick < cl.Weight {
					c = cl
					break
				}
				pick -= cl.Weight
			}
			ty, err := scenario.SliceTypeByName(c.Type)
			if err != nil {
				return nil, err
			}
			tmpl := slice.Table1(ty)
			mean := c.Alpha * tmpl.RateMbps
			std := c.SigmaFrac * mean
			if ty == slice.MMTC {
				std = 0
			}
			sp := sim.SliceSpec{
				Name:          fmt.Sprintf("%s-%d-%d", c.Name, e, len(out[e])),
				Template:      tmpl.WithStd(std),
				PenaltyFactor: c.Penalty,
				MeanMbps:      mean,
				StdMbps:       std,
				ArrivalEpoch:  e,
				Duration:      lifetime,
				Seed:          rng.Int63n(1 << 40),
			}
			out[e] = append(out[e], offerOf(domain, sp))
		}
	}
	return out, nil
}

// poisson samples Poisson(rate) by Knuth's product method.
func poisson(rng *rand.Rand, rate float64) int {
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// feeder plays one domain's data plane: every admitted slice draws its
// per-BS load from its own seeded generator into the domain's monitoring
// store, samplesPerEpoch samples per BS per epoch.
type feeder struct {
	cfg  sim.Config // SamplesPerEpoch and HWPeriod drive the generators
	nbs  int
	gens map[string][]traffic.Generator
}

func newFeeder(samplesPerEpoch, hwPeriod, nbs int) *feeder {
	return &feeder{
		cfg:  sim.Config{SamplesPerEpoch: samplesPerEpoch, HWPeriod: hwPeriod},
		nbs:  nbs,
		gens: map[string][]traffic.Generator{},
	}
}

func (f *feeder) admit(sp sim.SliceSpec) {
	gs := make([]traffic.Generator, f.nbs)
	for b := range gs {
		gs[b] = sim.NewGenerator(f.cfg, sp, b)
	}
	f.gens[sp.Name] = gs
}

func (f *feeder) drop(name string) { delete(f.gens, name) }

// feed adds the epoch's samples of every live slice, in name order.
func (f *feeder) feed(store *monitor.Store, epoch int) {
	names := make([]string, 0, len(f.gens))
	for n := range f.gens {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for b, g := range f.gens[n] {
			el := monitor.BSElement(b)
			for th := 0; th < f.cfg.SamplesPerEpoch; th++ {
				store.Add(monitor.Sample{Slice: n, Metric: monitor.LoadMetric, Element: el,
					Epoch: epoch, Theta: th, Value: g.Sample(epoch, th)})
			}
		}
	}
}
