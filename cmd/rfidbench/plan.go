package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	rfidclean "repro"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/stats"
)

// This file turns a workload and a seed into the run's inputs: the
// deployments, the reading sequences and the open-loop operation schedule.
// Everything flows from one stats.RNG seeded with the seed, so the same seed
// gives byte-identical inputs; the daemon only ever sees the generated
// requests.

// Operation kinds a mix can name. clean, batch and stream create
// trajectories; stay, pattern and top query the prefilled ones.
const (
	kindClean   = "clean"
	kindBatch   = "batch"
	kindStream  = "stream"
	kindStay    = "stay"
	kindPattern = "pattern"
	kindTop     = "top"
)

// Plan constants shared by every workload.
const (
	planDataset     = "SYN1"
	planDeployments = 2
	batchSpan       = 4  // sequences per batch clean
	streamChunk     = 5  // readings per stream POST
	sequenceSeconds = 20 // length of every reading sequence
	// poolSize is how many sequences each of a deployment's two pools holds.
	// A 25-s offline-clean window takes about 700 of a deployment's
	// sequences; past 512 the matcher starts over, so some are sent twice.
	poolSize = 512
	// warmup is how long the schedule runs before the measured window; its
	// inputs are sent once and checked but not measured.
	warmup = 2 * time.Second
)

// depInput is one synthesized deployment: the body that registers it, its
// location names and the reading sequences the plan sends to it, addressed
// by tag: the prefilled ones first, then each input's in schedule order.
type depInput struct {
	Locations []string
	MaxSpeed  float64
	MinStay   int
	TTCap     int
	Body      []byte // POST /v1/deployments body
	Seqs      []rfidclean.ReadingSequence
}

// op is one scheduled operation; At is its due time from the start of the
// warm-up.
type op struct {
	At        time.Duration
	Warm      bool // due before the measured window
	Kind      string
	Dep       int
	Tag       int    // the sequence cleaned or streamed, the first of a batch's; for queries, the prefilled target
	Subscribe bool   // stream: attach an SSE subscriber
	Smooth    bool   // stream: mid-stream smooth
	T         int    // stay: timestamp
	K         int    // top: k
	Pattern   string // pattern: trajectory pattern
}

// plan is a run's complete input.
type plan struct {
	Deps    []*depInput
	Ops     []op
	Prefill int // sequences per deployment cleaned during set-up
}

// weighed is a generated reading sequence with the node count of its
// conditioned graph, which sets what cleaning, smoothing, storing and
// querying it cost.
type weighed struct {
	seq   rfidclean.ReadingSequence
	nodes int
}

// synthesize derives the plan for workload w from seed: the warm-up and
// then a measured window of the given length.
//
// What a request costs depends mostly on its sequence, and that cost is
// heavy tailed: the graph of one 20-s sequence can be fifty times another's.
// Drawing a run's sequences at random would let the seed, not the program,
// set much of a run's numbers. So each deployment generates two pools of
// sequences and weighs each sequence by its graph: a reference pool from a
// stream no seed changes, and the seed's own. Each kind of input takes the
// seed's sequences whose graph sizes are closest to the reference pool's at
// evenly spaced quantiles, in seeded order, and a batch holds one sequence
// from each quarter of them. Every seed sends different sequences with the
// same costs. The mix is exact, inputs alternate between the deployments,
// queries cycle through the prefilled targets and the stream options
// through their four combinations.
func synthesize(w workload, seed uint64, window time.Duration) (*plan, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	p := &plan{Prefill: w.Prefill}
	matchers := make([]*matcher, planDeployments)
	errs := make([]error, planDeployments)
	p.Deps = make([]*depInput, planDeployments)
	var wg sync.WaitGroup
	for i := range matchers {
		stream := rng.Uint64() & 0xffff
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Deps[i], matchers[i], errs[i] = synthDeployment(i, stream)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// The schedule has a slot every 1/Rate s: the warm-up's inputs, then the
	// measured ones. Each phase has its exact mix, and the measured inputs
	// take their sequences first.
	warm := int(math.Ceil(warmup.Seconds() * w.Rate))
	measured := int(window.Seconds() * w.Rate)
	if measured < 1 {
		return nil, fmt.Errorf("workload %s: a %s window holds no input", w.Name, window)
	}
	phases := [][]string{mixSequence(rng, w.Mix, measured), mixSequence(rng, w.Mix, warm)}
	kinds := append(append([]string(nil), phases[1]...), phases[0]...)
	type needKey struct {
		warm bool
		dep  int
		kind string
	}
	queued := map[needKey][]rfidclean.ReadingSequence{}
	for i, d := range p.Deps {
		m := matchers[i]
		d.Seqs = shuffled(rng, m.take(w.Prefill))
		for _, isWarm := range []bool{false, true} {
			count := map[string]int{}
			for in, kind := range kinds {
				if (in < warm) == isWarm && in%planDeployments == i {
					count[kind]++
				}
			}
			queued[needKey{isWarm, i, kindClean}] = shuffled(rng, m.take(count[kindClean]))
			queued[needKey{isWarm, i, kindStream}] = shuffled(rng, m.take(count[kindStream]))
			queued[needKey{isWarm, i, kindBatch}] = batches(rng, m.take(batchSpan*count[kindBatch]))
		}
	}
	targets := shuffledPairs(rng, planDeployments, w.Prefill)
	queries, streams := 0, 0
	p.Ops = make([]op, len(kinds))
	for i, kind := range kinds {
		o := op{
			At:   time.Duration(float64(i) * float64(time.Second) / w.Rate),
			Kind: kind, Dep: i % planDeployments, Warm: i < warm,
		}
		switch kind {
		case kindClean, kindBatch, kindStream:
			span := 1
			if kind == kindBatch {
				span = batchSpan
			}
			k := needKey{o.Warm, o.Dep, kind}
			d, q := p.Deps[o.Dep], queued[k]
			o.Tag = len(d.Seqs)
			d.Seqs = append(d.Seqs, q[:span]...)
			queued[k] = q[span:]
			if kind == kindStream {
				o.Smooth = streams%2 == 0
				o.Subscribe = streams/2%2 == 0
				streams++
			}
		case kindStay, kindPattern, kindTop:
			t := targets[queries%len(targets)]
			queries++
			o.Dep, o.Tag = t[0], t[1]
			switch kind {
			case kindStay:
				o.T = rng.Intn(sequenceSeconds)
			case kindPattern:
				o.Pattern = p.Deps[o.Dep].pattern(rng)
			default:
				o.K = 1 + rng.Intn(3)
			}
		}
		p.Ops[i] = o
	}
	return p, nil
}

// matcher draws one deployment's inputs from the seed's pool to match the
// graph sizes of the reference pool; both are sorted by graph size.
type matcher struct {
	ref, pool []weighed
	used      []bool
}

// take returns n sequences, sorted by graph size: for each j the unused
// sequence of the seed's pool whose graph size is closest to the reference
// pool's at quantile (j+½)/n. Once the pool is used up, sequences repeat.
func (m *matcher) take(n int) []rfidclean.ReadingSequence {
	out := make([]rfidclean.ReadingSequence, n)
	for j := range out {
		target := m.ref[(2*j+1)*len(m.ref)/(2*n)].nodes
		i := sort.Search(len(m.pool), func(i int) bool { return m.pool[i].nodes >= target })
		lo, hi := i-1, i
		for lo >= 0 && m.used[lo] {
			lo--
		}
		for hi < len(m.pool) && m.used[hi] {
			hi++
		}
		var best int
		switch {
		case lo < 0 && hi == len(m.pool): // every sequence taken
			clear(m.used)
			best = min(i, len(m.pool)-1)
		case lo < 0 || (hi < len(m.pool) && m.pool[hi].nodes-target < target-m.pool[lo].nodes):
			best = hi
		default:
			best = lo
		}
		m.used[best] = true
		out[j] = m.pool[best].seq
	}
	return out
}

// batches groups seqs, sorted by graph size, into batches of batchSpan in
// seeded order, batch j holding the j-th sequence of each quarter.
func batches(rng *stats.RNG, seqs []rfidclean.ReadingSequence) []rfidclean.ReadingSequence {
	n := len(seqs) / batchSpan
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	out := make([]rfidclean.ReadingSequence, 0, len(seqs))
	for _, j := range order {
		for q := 0; q < batchSpan; q++ {
			out = append(out, seqs[q*n+j])
		}
	}
	return out
}

func shuffled(rng *stats.RNG, seqs []rfidclean.ReadingSequence) []rfidclean.ReadingSequence {
	rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	return seqs
}

// mixSequence returns n op kinds in exactly the mix's proportions (largest
// remainder rounding), in seeded random order.
func mixSequence(rng *stats.RNG, mix []mixEntry, n int) []string {
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	counts := make([]int, len(mix))
	rems := make([]float64, len(mix))
	left := n
	for i, m := range mix {
		exact := float64(n) * m.Weight / total
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rems {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
	}
	out := make([]string, 0, n)
	for i, m := range mix {
		for j := 0; j < counts[i]; j++ {
			out = append(out, m.Kind)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// shuffledPairs returns every (deployment, index) pair for index < per, in
// seeded random order.
func shuffledPairs(rng *stats.RNG, deps, per int) [][2]int {
	out := make([][2]int, 0, deps*per)
	for d := 0; d < deps; d++ {
		for i := 0; i < per; i++ {
			out = append(out, [2]int{d, i})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// referenceStream is the generator stream of every deployment's reference
// pool, the same for every seed.
const referenceStream = 0x5eed

// synthDeployment builds deployment i and its registration body, and
// generates its two pools of poolSize reading sequences: the reference
// pool and the seed's, from the given stream. The deployment
// itself, whose calibration sets what every clean costs, is the same
// whatever the seed: deployment i calibrates with the dataset's seed plus
// i. Only the traffic varies with the seed.
func synthDeployment(i int, stream uint64) (*depInput, *matcher, error) {
	cfg, err := dataset.ConfigByName(planDataset)
	if err != nil {
		return nil, nil, err
	}
	cfg.Seed += uint64(i)
	ds, err := dataset.Build(planDataset, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building deployment %d: %w", i, err)
	}
	dep := &rfidclean.Deployment{
		Name:               fmt.Sprintf("%s-bench-%d", planDataset, i),
		Plan:               ds.Plan,
		Readers:            ds.Readers,
		Detection:          cfg.Detection,
		CellSize:           cfg.CellSize,
		CalibrationSamples: cfg.CalibrationSamples,
		Seed:               cfg.Seed,
	}
	body, err := dep.EncodeBytes()
	if err != nil {
		return nil, nil, err
	}
	d := &depInput{MaxSpeed: cfg.MaxSpeed, MinStay: cfg.MinStay, TTCap: cfg.TTCap, Body: body}
	for _, l := range ds.Plan.Locations() {
		d.Locations = append(d.Locations, l.Name)
	}
	sys, err := dep.System()
	if err != nil {
		return nil, nil, err
	}
	ic, err := sys.Constraints(rfidclean.ConstraintParams{MaxSpeed: d.MaxSpeed, MinStay: d.MinStay, TTCap: d.TTCap})
	if err != nil {
		return nil, nil, err
	}
	// weigh generates poolSize sequences from a stream and conditions each as
	// the daemon will, returning them sorted by graph size. A sequence that
	// cannot be conditioned is left out.
	weigh := func(stream uint64) ([]weighed, error) {
		instances, err := ds.Generate(sequenceSeconds, poolSize, stream)
		if err != nil {
			return nil, fmt.Errorf("generating sequences of deployment %d: %w", i, err)
		}
		var pool []weighed
		for _, inst := range instances {
			seq := rfidclean.ReadingSequence(inst.Readings)
			ls, err := sys.Prior.LSequence(seq)
			if err != nil {
				continue
			}
			g, err := core.Build(ls, ic, &core.Options{EndLatency: constraints.LenientEnd})
			if err != nil {
				continue
			}
			pool = append(pool, weighed{seq, g.Stats().Nodes})
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("deployment %d: no generated sequence could be conditioned", i)
		}
		sort.SliceStable(pool, func(a, b int) bool { return pool[a].nodes < pool[b].nodes })
		return pool, nil
	}
	m := &matcher{}
	if m.ref, err = weigh(referenceStream); err != nil {
		return nil, nil, err
	}
	if m.pool, err = weigh(stream); err != nil {
		return nil, nil, err
	}
	m.used = make([]bool, len(m.pool))
	return d, m, nil
}

// pattern draws a trajectory pattern over one of the deployment's locations:
// passing through it at all, or staying in it for 2 to 4 seconds in a row.
func (d *depInput) pattern(rng *stats.RNG) string {
	loc := d.Locations[rng.Intn(len(d.Locations))]
	if rng.Bernoulli(0.5) {
		return "? " + loc + " ?"
	}
	return fmt.Sprintf("? %s[%d] ?", loc, 2+rng.Intn(3))
}

// cleanBody is the POST /v1/clean body for one tag of a deployment.
func (d *depInput) cleanBody(depID string, tag int) []byte {
	body, _ := json.Marshal(server.CleanRequest{
		Deployment: depID,
		Tag:        fmt.Sprintf("%s-tag%d", depID, tag),
		Readings:   d.Seqs[tag],
		MaxSpeed:   d.MaxSpeed,
		MinStay:    d.MinStay,
		TTCap:      d.TTCap,
	})
	return body
}

// batchBody is the POST /v1/clean/batch body for a batch op starting at tag:
// batchSpan consecutive tags.
func (d *depInput) batchBody(depID string, tag int) []byte {
	seqs := make([]rfidclean.ReadingSequence, batchSpan)
	for i := range seqs {
		seqs[i] = d.Seqs[(tag+i)%len(d.Seqs)]
	}
	body, _ := json.Marshal(server.BatchCleanRequest{
		Deployment: depID,
		Sequences:  seqs,
		MaxSpeed:   d.MaxSpeed,
		MinStay:    d.MinStay,
		TTCap:      d.TTCap,
	})
	return body
}

// openBody is the POST /v1/stream body for one tag.
func (d *depInput) openBody(depID string, tag int) []byte {
	body, _ := json.Marshal(server.StreamOpenRequest{
		Deployment: depID,
		Tag:        fmt.Sprintf("%s-tag%d", depID, tag),
		MaxSpeed:   d.MaxSpeed,
		MinStay:    d.MinStay,
		TTCap:      d.TTCap,
	})
	return body
}

// chunks splits one tag's sequence into binary-codec stream POST bodies of
// streamChunk readings.
func (d *depInput) chunks(tag int) [][]byte {
	seq := d.Seqs[tag]
	var out [][]byte
	for i := 0; i < len(seq); i += streamChunk {
		out = append(out, server.EncodeStreamReadings(seq[i:min(i+streamChunk, len(seq))]))
	}
	return out
}

// smoothAfter is the index of the chunk after which a smoothing stream
// session smooths mid-stream.
func smoothAfter(chunks int) int { return (chunks - 1) / 2 }

// queryPath is the GET path of a stay, pattern or top op on trajectory id.
func queryPath(o op, id string) string {
	base := "/v1/trajectories/" + id
	switch o.Kind {
	case kindStay:
		return base + "/stay?t=" + strconv.Itoa(o.T)
	case kindPattern:
		return base + "/match?pattern=" + url.QueryEscape(o.Pattern)
	default:
		return base + "/top?k=" + strconv.Itoa(o.K)
	}
}
