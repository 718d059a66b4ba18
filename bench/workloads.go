package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"mpcgs/internal/phylip"
	"mpcgs/internal/seqgen"
)

// workload is one set of inputs the benchmark runs. Estimation workloads
// sample Datasets alignments made from the seed with the problem
// template Tmpl; the service workload drives mpcgsd with a job mix.
type workload struct {
	Name    string
	Service bool
	// Estimation workloads.
	Datasets  int
	NSeq, Len int
	Tmpl      problem
	// Service workload.
	Mix     []jobClass
	Rate    float64 // jobs per second, open loop
	Tenants int
	// RestartJobs jobs of class Restart are submitted after the arrival
	// window. The daemon is stopped and restarted Restarts times, each
	// time once every one of them has run RestartSteps more sampler
	// transitions, so the class must run more than Restarts×RestartSteps.
	Restart      jobClass
	RestartJobs  int
	RestartSteps int
	Restarts     int
}

// jobClass is one kind of service job: its data size and spec, and how
// many jobs of it a deck of deckSize arrivals holds.
type jobClass struct {
	Name      string
	NSeq, Len int
	Tmpl      problem
	PerDeck   int
}

// deckSize is the arrival block over which the job mix is exact: every
// deckSize consecutive arrivals hold each class PerDeck times, in an
// order shuffled from the seed. Stratifying keeps the class proportions —
// and with them the latency percentiles — from drifting between seeds.
// The mix gives the slowest class (medium) 3 of 20 jobs, so p90 lies
// inside it rather than on its boundary with the next class.
const deckSize = 20

func gmh(n, burnin, samples, em int) problem {
	return problem{Sampler: "gmh", Proposals: n, Burnin: burnin, Samples: samples, EMIterations: em, Theta0: 0.5}
}

func heated(chains, burnin, samples, em int) problem {
	return problem{Sampler: "heated", Chains: chains, Adapt: true, Burnin: burnin, Samples: samples, EMIterations: em, Theta0: 0.5}
}

// workloads returns every workload at the given scale: "full" for the
// benchmark, "tiny" for the smoke test.
func workloads(scale string) ([]workload, error) {
	switch scale {
	case "full":
		return []workload{
			{Name: "gmh-longseq", Datasets: 8, NSeq: 32, Len: 4000, Tmpl: gmh(8, 200, 1000, 2)},
			{Name: "gmh-manysamples", Datasets: 8, NSeq: 12, Len: 200, Tmpl: gmh(8, 500, 2000, 2)},
			{Name: "heated-mc3", Datasets: 12, NSeq: 12, Len: 1000, Tmpl: heated(4, 200, 400, 2)},
			serviceMix(5, 4, 200, []jobClass{
				{Name: "small", NSeq: 8, Len: 200, Tmpl: gmh(4, 100, 300, 1), PerDeck: 12},
				{Name: "ess", NSeq: 8, Len: 200, Tmpl: withESS(gmh(4, 100, 1500, 1), 10), PerDeck: 3},
				{Name: "heated", NSeq: 12, Len: 400, Tmpl: heated(4, 100, 300, 1), PerDeck: 2},
				{Name: "medium", NSeq: 16, Len: 1000, Tmpl: gmh(8, 100, 600, 2), PerDeck: 3},
			}, jobClass{Name: "long", NSeq: 16, Len: 1000, Tmpl: gmh(8, 200, 3000, 2)}),
		}, nil
	case "tiny":
		return []workload{
			{Name: "gmh-longseq", Datasets: 2, NSeq: 8, Len: 300, Tmpl: gmh(4, 20, 200, 1)},
			{Name: "gmh-manysamples", Datasets: 2, NSeq: 6, Len: 100, Tmpl: gmh(4, 50, 400, 1)},
			{Name: "heated-mc3", Datasets: 2, NSeq: 6, Len: 200, Tmpl: heated(3, 50, 300, 1)},
			serviceMix(8, 2, 40, []jobClass{
				{Name: "small", NSeq: 6, Len: 100, Tmpl: gmh(2, 20, 100, 1), PerDeck: 12},
				{Name: "ess", NSeq: 6, Len: 100, Tmpl: withESS(gmh(2, 20, 600, 1), 10), PerDeck: 3},
				{Name: "heated", NSeq: 6, Len: 100, Tmpl: heated(2, 20, 100, 1), PerDeck: 2},
				{Name: "medium", NSeq: 8, Len: 200, Tmpl: gmh(4, 20, 200, 1), PerDeck: 3},
			}, jobClass{Name: "long", NSeq: 8, Len: 200, Tmpl: gmh(4, 20, 600, 1)}),
		}, nil
	}
	return nil, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
}

func serviceMix(rate float64, tenants, restartSteps int, mix []jobClass, restart jobClass) workload {
	return workload{
		Name: "service-mix", Service: true, Mix: mix, Rate: rate, Tenants: tenants,
		Restart: restart, RestartJobs: 4, RestartSteps: restartSteps, Restarts: 3,
	}
}

func withESS(p problem, target float64) problem {
	p.ESSTarget = target
	return p
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mix64 derives the i-th input seed of a run from the run's seed
// (SplitMix64 finalizer; never zero, which the estimator reads as
// "default").
func mix64(seed uint64, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// simulateTheta is the θ every workload's data is simulated at.
const simulateTheta = 1.0

// simulate makes one alignment by the paper's pipeline
// (seqgen.SimulateData: a coalescent genealogy at θ = 1, sequences
// evolved along it) and renders it as PHYLIP text. It also returns the θ
// that generating genealogy itself supports, its maximum-likelihood
// Σk(k−1)t_k / (n−1): one genealogy's value ranges about 0.5–1.8, and
// the estimate from its sequences should land near it.
func simulate(nSeq, length int, seed uint64) ([]byte, float64, error) {
	aln, tree, err := seqgen.SimulateData(nSeq, length, simulateTheta, seed)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := phylip.Write(&buf, aln); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), tree.SumKKT() / float64(nSeq-1), nil
}

// input is one problem of a run: a dataset of an estimation workload, or
// one job of the service workload with its class, tenant and arrival.
type input struct {
	Class  string  `json:"class"`
	Tenant string  `json:"tenant"`
	At     float64 `json:"at"` // scheduled arrival, seconds after the window opens
	P      problem `json:"problem"`
}

// inputs makes a run's inputs from its seed. For an estimation workload
// these are Datasets problems; for the service workload, the arrivals of
// a window of the given length followed by the restart-phase jobs (with
// At < 0). The same seed always gives the same inputs.
func (w workload) inputs(seed uint64, window float64) ([]input, error) {
	if !w.Service {
		out := make([]input, w.Datasets)
		for i := range out {
			phy, thetaG, err := simulate(w.NSeq, w.Len, mix64(seed, uint64(i)))
			if err != nil {
				return nil, err
			}
			p := w.Tmpl
			p.Name = fmt.Sprintf("%s-%d", w.Name, i)
			p.Phylip = phy
			p.GenealogyTheta = thetaG
			p.Seed = mix64(seed, 1000+uint64(i))
			out[i] = input{P: p}
		}
		return out, nil
	}
	r := rand.New(rand.NewPCG(seed, 0x5e41ce))
	at := openLoopSchedule(r, w.Rate, window)
	classes := deck(r, w.Mix, len(at))
	var out []input
	add := func(c jobClass, at float64) error {
		i := uint64(len(out))
		phy, thetaG, err := simulate(c.NSeq, c.Len, mix64(seed, i))
		if err != nil {
			return err
		}
		p := c.Tmpl
		p.Name = fmt.Sprintf("j%03d-%s", i, c.Name)
		p.Phylip = phy
		p.GenealogyTheta = thetaG
		p.Seed = mix64(seed, 1000+i)
		out = append(out, input{Class: c.Name, Tenant: "t" + strconv.Itoa(int(i)%w.Tenants), At: at, P: p})
		return nil
	}
	for k, t := range at {
		if err := add(classes[k], t); err != nil {
			return nil, err
		}
	}
	for k := 0; k < w.RestartJobs; k++ {
		if err := add(w.Restart, -1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// deck assigns classes to n arrivals: consecutive blocks of deckSize
// hold each class exactly PerDeck times, shuffled from r.
func deck(r *rand.Rand, mix []jobClass, n int) []jobClass {
	var block []jobClass
	for _, c := range mix {
		for k := 0; k < c.PerDeck; k++ {
			block = append(block, c)
		}
	}
	out := make([]jobClass, 0, n)
	for len(out) < n {
		b := append([]jobClass(nil), block...)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

// inputDir is where a run's inputs are written for its child process.
func inputDir(outDir string, w workload, seed uint64, scale string) string {
	return filepath.Join(outDir, "inputs", fmt.Sprintf("%s-%s-%d", w.Name, scale, seed))
}

// writeInputs stores the inputs as a manifest plus one PHYLIP file per
// problem, so the workload process pays only for reading them.
func writeInputs(dir string, jobs []input) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, j := range jobs {
		if err := os.WriteFile(filepath.Join(dir, strconv.Itoa(i)+".phy"), j.P.Phylip, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(jobs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "inputs.json"), b, 0o644)
}

// readInputs is writeInputs' inverse.
func readInputs(dir string) ([]input, error) {
	b, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	var jobs []input
	if err := json.Unmarshal(b, &jobs); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	for i := range jobs {
		if jobs[i].P.Phylip, err = os.ReadFile(filepath.Join(dir, strconv.Itoa(i)+".phy")); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}
