package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"coldtall"
	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// Every input a workload sends is a pure function of the seed (and, for
// ingest, the round): the program receives only the generated inputs.

// request is one HTTP request of the serve workload.
type request struct {
	method string
	path   string
	body   []byte
	// key identifies the response: requests with equal keys must answer
	// equal bytes.
	key  string
	miss bool
}

// hotSet is the serve workload's repeated keys: every registry artifact as
// CSV (comparable with its golden), the Table II candidates characterized,
// and a fixed grid of evaluations.
func hotSet() ([]request, error) {
	var out []request
	for _, name := range coldtall.Artifacts().Names() {
		path := "/v1/artifacts/" + name + "?format=csv"
		out = append(out, request{method: http.MethodGet, path: path, key: "artifact|" + name})
	}
	pts, err := explorer.TableIICandidates()
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		r, err := characterizeRequest(p.Spec())
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	for _, p := range pts[:4] {
		for _, bench := range []string{"mcf", "lbm", "gcc", "namd"} {
			r, err := evaluateRequest(p.Spec(), bench)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func characterizeRequest(spec explorer.PointSpec) (request, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return request{}, err
	}
	return request{method: http.MethodPost, path: "/v1/characterize", body: body, key: "characterize|" + string(body)}, nil
}

func evaluateRequest(spec explorer.PointSpec, bench string) (request, error) {
	body, err := json.Marshal(struct {
		Point     explorer.PointSpec `json:"point"`
		Benchmark string             `json:"benchmark"`
	}{spec, bench})
	if err != nil {
		return request{}, err
	}
	return request{method: http.MethodPost, path: "/v1/evaluate", body: body, key: "evaluate|" + string(body)}, nil
}

// Axes of the serve workload's miss grid: cell × corner × dies × style ×
// temperature (every kelvin from 77 to 400) × capacity × frequency.
var (
	missCells  = []string{"SRAM", "3T-eDRAM", "PCM", "STT-RAM", "RRAM", "OS-GC"}
	missStyles = []struct {
		style string
		dies  int
	}{{"tsv", 1}, {"tsv", 2}, {"tsv", 4}, {"tsv", 8}, {"face-to-face", 2}, {"monolithic", 2}, {"monolithic", 4}}
	missTemps = tempRange(77, 400)
	missCaps  = []int64{0, 4 << 20, 8 << 20, 32 << 20}
	missFreqs = []float64{0, 2e9, 3e9, 4e9, 6e9, 8e9}
)

func tempRange(lo, hi float64) []float64 {
	var out []float64
	for t := lo; t <= hi; t++ {
		out = append(out, t)
	}
	return out
}

// missGrid is the serve workload's never-seen design points: every
// combination of the axes, visited in an order permuted by the seed. A
// combination is validated only when it is drawn (ParsePoint on all of
// them takes seconds); one that does not parse, that is a hot-set point,
// or that names a corner its cell does not have, is skipped. The
// combinations left are distinct canonical keys, so no point is drawn
// twice.
type missGrid struct {
	order []int32 // combination indices, permuted
	hot   map[string]bool
}

func newMissGrid(seed int64) (*missGrid, error) {
	pts, err := explorer.TableIICandidates()
	if err != nil {
		return nil, err
	}
	g := &missGrid{hot: map[string]bool{}}
	for _, p := range pts {
		g.hot[p.Key()] = true
	}
	n := len(missCells) * len(cell.Corners()) * len(missStyles) * len(missTemps) * len(missCaps) * len(missFreqs)
	g.order = make([]int32, n)
	for i := range g.order {
		g.order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(mix(seed, 0x6d6973)))
	rng.Shuffle(n, func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	return g, nil
}

// point decodes the i-th combination of the permuted order and reports
// whether it is a valid point outside the hot set.
func (g *missGrid) point(i int) (explorer.PointSpec, bool) {
	k := int(g.order[i])
	digit := func(n int) int { d := k % n; k /= n; return d }
	f := missFreqs[digit(len(missFreqs))]
	capacity := missCaps[digit(len(missCaps))]
	t := missTemps[digit(len(missTemps))]
	st := missStyles[digit(len(missStyles))]
	corner := cell.Corners()[digit(len(cell.Corners()))]
	c := missCells[digit(len(missCells))]
	spec := explorer.PointSpec{Cell: c, Corner: corner.String(), Dies: st.dies, Style: st.style,
		TemperatureK: t, CapacityBytes: capacity, FrequencyHz: f}
	p, err := explorer.ParsePoint(spec)
	// A cell without corners (SRAM, eDRAM) parses every corner to one
	// point; only the corner it keeps is drawn.
	if err != nil || g.hot[p.Key()] || p.Spec().Corner != spec.Corner {
		return explorer.PointSpec{}, false
	}
	return p.Spec(), true
}

// missFraction is the share of serve requests sent to never-seen points.
const missFraction = 0.05

// errGridUsedUp ends a client's closed loop when its share of the miss
// grid is used up.
var errGridUsedUp = errors.New("miss grid used up")

// sequence generates the requests of one serve client in one phase: a
// missFrac share of them the next unseen grid point, the rest drawn
// uniformly from the hot set. Each client of each phase has a slot, and
// slot s of n takes grid positions s, s+n, s+2n, … so no point is sent
// twice in a run.
type sequence struct {
	rng      *rand.Rand
	missFrac float64
	hot      []request
	grid     *missGrid
	next     int
	stride   int
}

func newSequence(seed int64, slot, slots int, hot []request, grid *missGrid) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(mix(seed, int64(slot)+1))), missFrac: missFraction,
		hot: hot, grid: grid, next: slot, stride: slots}
}

// Next returns the next request, or errGridUsedUp when the slot's share
// of the grid is used up.
func (s *sequence) Next() (request, error) {
	if s.rng.Float64() >= s.missFrac {
		return s.hot[s.rng.Intn(len(s.hot))], nil
	}
	var spec explorer.PointSpec
	for ok := false; !ok; {
		if s.grid == nil || s.next >= len(s.grid.order) {
			return request{}, errGridUsedUp
		}
		spec, ok = s.grid.point(s.next)
		s.next += s.stride
	}
	var r request
	var err error
	if s.rng.Intn(2) == 0 {
		r, err = characterizeRequest(spec)
	} else {
		names := workload.Names()
		r, err = evaluateRequest(spec, names[s.rng.Intn(len(names))])
	}
	r.miss = true
	return r, err
}

// ingestKinds are the traces one ingest round uploads, in order. "dup" is
// a near-duplicate of "zipf" (same distribution, another stream) and must
// take the dedup alias path.
var ingestKinds = []string{"zipf", "stream", "chase", "dup"}

// ingestAccesses is the length of each uploaded trace.
const ingestAccesses = 1 << 19

// ingestTrace generates one trace of a round as canonical .ctrace bytes.
func ingestTrace(seed int64, round int, kind string) ([]byte, error) {
	s := mix(seed, int64(round)<<8)
	var g trace.Generator
	var err error
	switch kind {
	case "zipf":
		// A Zipf hot set inside the L2: mostly L1/L2 hits.
		g, err = trace.NewZipf(trace.Region{Base: 0, Size: 384 << 10}, 1.2, 0.2, s+1)
	case "dup":
		g, err = trace.NewZipf(trace.Region{Base: 0, Size: 384 << 10}, 1.2, 0.2, s+4)
	case "stream":
		// A sequential sweep far larger than the LLC: every level misses,
		// so fills dominate.
		g, err = trace.NewStream(trace.Region{Base: 1 << 32, Size: 256 << 20}, 1, 0.3, s+2)
	case "chase":
		g, err = trace.NewPointerChase(trace.Region{Base: 1 << 36, Size: 32 << 20}, 0.1, s+3)
	default:
		return nil, fmt.Errorf("unknown trace kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for i := 0; i < ingestAccesses; i++ {
		if err := w.Write(g.Next()); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// mix derives an independent stream seed (splitmix64 finalizer).
func mix(seed, salt int64) int64 {
	z := uint64(seed) + uint64(salt)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// inputsDigest hashes what a workload sends for a seed: for paper the
// artifact list and design-point grid (no seed involved), for serve the
// hot set and each client's first requests, for ingest the first round's
// trace bytes. Runs record it, and the tests pin its determinism.
func inputsDigest(name string, seed int64, clients int) (string, error) {
	h := sha256.New()
	switch name {
	case "paper":
		fmt.Fprintln(h, coldtall.Artifacts().Names())
		pts, err := paperPoints()
		if err != nil {
			return "", err
		}
		for _, p := range pts {
			fmt.Fprintln(h, p.Key())
		}
	case "serve":
		hot, err := hotSet()
		if err != nil {
			return "", err
		}
		grid, err := newMissGrid(seed)
		if err != nil {
			return "", err
		}
		for c, seq := range phaseSeqs(seed, clients, 1, hot, grid, missFraction) {
			for i := 0; i < 2000; i++ {
				r, err := seq.Next()
				if err != nil {
					return "", err
				}
				fmt.Fprintf(h, "%d %s %s %s\n", c, r.method, r.path, r.body)
			}
		}
	case "ingest":
		for _, k := range ingestKinds {
			data, err := ingestTrace(seed, 0, k)
			if err != nil {
				return "", err
			}
			h.Write(data)
		}
	default:
		return "", fmt.Errorf("unknown workload %q", name)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
