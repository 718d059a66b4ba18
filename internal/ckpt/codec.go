package ckpt

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mpcgs/internal/core"
	"mpcgs/internal/gtree"
	"mpcgs/internal/newick"
	"mpcgs/internal/rng"
	"mpcgs/internal/tempering"
)

// --- scalar and array codecs -----------------------------------------------

// hexFloat renders f as a hexadecimal float literal: exact (every bit of
// the mantissa survives) and still greppable, unlike raw bit patterns.
// ±Inf and NaN render as their strconv spellings, which ParseFloat reads
// back.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func parseHexFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("ckpt: bad float %q: %w", s, err)
	}
	return f, nil
}

// EncodeRNG converts an exported generator state to wire form.
func EncodeRNG(s rng.MTState) RNGState {
	buf := make([]byte, 4*len(s.Vec))
	for i, w := range s.Vec {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	return RNGState{State: base64.StdEncoding.EncodeToString(buf), Index: s.Index}
}

// DecodeRNG converts a wire generator state back.
func DecodeRNG(w RNGState) (rng.MTState, error) {
	var s rng.MTState
	buf, err := base64.StdEncoding.DecodeString(w.State)
	if err != nil {
		return s, fmt.Errorf("ckpt: bad rng state: %w", err)
	}
	if len(buf) != 4*len(s.Vec) {
		return s, fmt.Errorf("ckpt: rng state has %d bytes, want %d", len(buf), 4*len(s.Vec))
	}
	for i := range s.Vec {
		s.Vec[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	s.Index = w.Index
	return s, nil
}

// --- genealogy codec --------------------------------------------------------

// EncodeTree renders a genealogy in wire form: a newick round-trip for the
// topology (tips keep their names; interior nodes are labelled with their
// arena index, which the proposal kernel's neighbourhood addressing makes
// part of the chain state) plus exact hexadecimal ages.
func EncodeTree(t *gtree.Tree) Tree {
	var conv func(i int) *newick.Node
	conv = func(i int) *newick.Node {
		nd := &newick.Node{}
		if t.IsTip(i) {
			nd.Name = t.Nodes[i].Name
		} else {
			nd.Name = "#" + strconv.Itoa(i)
			nd.Children = []*newick.Node{
				conv(t.Nodes[i].Child[0]),
				conv(t.Nodes[i].Child[1]),
			}
		}
		if p := t.Nodes[i].Parent; p != gtree.Nil {
			nd.Length = t.Nodes[p].Age - t.Nodes[i].Age
			nd.HasLength = true
		}
		return nd
	}
	w := Tree{Newick: conv(t.Root).String()}
	w.Ages = make([]string, t.NInterior())
	for k := 0; k < t.NInterior(); k++ {
		w.Ages[k] = hexFloat(t.Nodes[t.InteriorIndex(k)].Age)
	}
	w.Tips = append(w.Tips, t.TipNames()...)
	return w
}

// DecodeTree parses a wire genealogy back into an arena tree: the newick
// string supplies topology and node identities, the tip list maps leaf
// names to their arena indices, and the ages field overwrites every
// interior age with its exact value (the newick branch lengths are only a
// human-readable rendering). The result is fully validated.
func DecodeTree(w Tree) (*gtree.Tree, error) {
	n := len(w.Tips)
	if n < 2 {
		return nil, fmt.Errorf("ckpt: tree has %d tips, need at least 2", n)
	}
	if len(w.Ages) != n-1 {
		return nil, fmt.Errorf("ckpt: tree has %d ages for %d interior nodes", len(w.Ages), n-1)
	}
	root, err := newick.Parse(w.Newick)
	if err != nil {
		return nil, fmt.Errorf("ckpt: tree newick: %w", err)
	}
	tipIdx := make(map[string]int, n)
	for i, name := range w.Tips {
		if _, dup := tipIdx[name]; dup {
			return nil, fmt.Errorf("ckpt: duplicate tip name %q", name)
		}
		tipIdx[name] = i
	}
	t := gtree.New(n)
	used := make([]bool, 2*n-1)
	var build func(nd *newick.Node) (int, error)
	build = func(nd *newick.Node) (int, error) {
		var i int
		if nd.IsLeaf() {
			idx, ok := tipIdx[nd.Name]
			if !ok {
				return 0, fmt.Errorf("ckpt: tree leaf %q not in the tip list", nd.Name)
			}
			i = idx
			t.Nodes[i].Name = nd.Name
			t.Nodes[i].Age = 0
		} else {
			if len(nd.Children) != 2 {
				return 0, fmt.Errorf("ckpt: tree node %q has %d children, want 2", nd.Name, len(nd.Children))
			}
			k, ok := strings.CutPrefix(nd.Name, "#")
			if !ok {
				return 0, fmt.Errorf("ckpt: interior node label %q does not carry an arena index", nd.Name)
			}
			idx, err := strconv.Atoi(k)
			if err != nil || idx < n || idx >= 2*n-1 {
				return 0, fmt.Errorf("ckpt: interior node label %q is not a valid arena index", nd.Name)
			}
			i = idx
			age, err := parseHexFloat(w.Ages[i-n])
			if err != nil {
				return 0, err
			}
			t.Nodes[i].Age = age
			c0, err := build(nd.Children[0])
			if err != nil {
				return 0, err
			}
			c1, err := build(nd.Children[1])
			if err != nil {
				return 0, err
			}
			t.Nodes[i].Child = [2]int{c0, c1}
			t.Nodes[c0].Parent = i
			t.Nodes[c1].Parent = i
		}
		if used[i] {
			return 0, fmt.Errorf("ckpt: tree node index %d appears twice", i)
		}
		used[i] = true
		return i, nil
	}
	r, err := build(root)
	if err != nil {
		return nil, err
	}
	if t.IsTip(r) {
		return nil, fmt.Errorf("ckpt: tree root is a tip")
	}
	t.Root = r
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: decoded tree invalid: %w", err)
	}
	return t, nil
}

// --- snapshot conversions ---------------------------------------------------

// EncodeChain converts a chain snapshot to wire form.
func EncodeChain(c core.ChainSnapshot) Chain {
	return Chain{Tree: EncodeTree(c.Tree), Beta: hexFloat(c.Beta), Serial: c.Serial}
}

// DecodeChain converts a wire chain back.
func DecodeChain(w Chain) (core.ChainSnapshot, error) {
	tree, err := DecodeTree(w.Tree)
	if err != nil {
		return core.ChainSnapshot{}, err
	}
	beta, err := parseHexFloat(w.Beta)
	if err != nil {
		return core.ChainSnapshot{}, err
	}
	return core.ChainSnapshot{Tree: tree, Beta: beta, Serial: w.Serial}, nil
}

// EncodeLadder converts a tempering controller state to wire form.
func EncodeLadder(s *tempering.State) *Ladder {
	if s == nil {
		return nil
	}
	w := &Ladder{
		Adapt:       s.Adapt,
		Window:      s.Window,
		Attempts:    append([]int64(nil), s.Attempts...),
		Accepts:     append([]int64(nil), s.Accepts...),
		EstAttempts: append([]int64(nil), s.EstAttempts...),
		EstAccepts:  append([]int64(nil), s.EstAccepts...),
		Adapts:      s.Adapts,
	}
	for _, b := range s.Betas {
		w.Betas = append(w.Betas, hexFloat(b))
	}
	for _, g := range s.Gaps {
		w.Gaps = append(w.Gaps, hexFloat(g))
	}
	for _, win := range s.Windows {
		w.Windows = append(w.Windows, base64.StdEncoding.EncodeToString(win.Outcomes))
	}
	return w
}

// DecodeLadder converts a wire ladder state back. Structural validation
// (rung counts, window capacities, monotone betas) is the controller's
// Restore's job; here only the encodings are checked.
func DecodeLadder(w *Ladder) (*tempering.State, error) {
	if w == nil {
		return nil, nil
	}
	s := &tempering.State{
		Adapt:       w.Adapt,
		Window:      w.Window,
		Attempts:    append([]int64(nil), w.Attempts...),
		Accepts:     append([]int64(nil), w.Accepts...),
		EstAttempts: append([]int64(nil), w.EstAttempts...),
		EstAccepts:  append([]int64(nil), w.EstAccepts...),
		Adapts:      w.Adapts,
	}
	for i, b := range w.Betas {
		f, err := parseHexFloat(b)
		if err != nil {
			return nil, fmt.Errorf("ckpt: ladder beta %d: %w", i, err)
		}
		s.Betas = append(s.Betas, f)
	}
	for i, g := range w.Gaps {
		f, err := parseHexFloat(g)
		if err != nil {
			return nil, fmt.Errorf("ckpt: ladder gap %d: %w", i, err)
		}
		s.Gaps = append(s.Gaps, f)
	}
	for i, win := range w.Windows {
		buf, err := base64.StdEncoding.DecodeString(win)
		if err != nil {
			return nil, fmt.Errorf("ckpt: ladder window %d: %w", i, err)
		}
		s.Windows = append(s.Windows, tempering.WindowState{Outcomes: buf})
	}
	return s, nil
}

// EncodeTraceRef converts a sidecar trace reference to wire form. The
// online diagnostics are written only for a run that keeps them: a NaN
// ESS marks a run that keeps none.
func EncodeTraceRef(r *core.TraceRef) *TraceRef {
	if r == nil {
		return nil
	}
	w := &TraceRef{
		Path:       r.Path,
		NAges:      r.NAges,
		Offset:     r.Offset,
		Draws:      r.Draws,
		PassOffset: r.PassOffset,
		PassDraws:  r.PassDraws,
		Stopped:    r.Stopped,
	}
	if !math.IsNaN(r.ESS) {
		w.ESS, w.RHat = hexFloat(r.ESS), hexFloat(r.RHat)
	}
	return w
}

// DecodeTraceRef converts a wire sidecar reference back. Offset
// consistency against the actual sidecar file is the recorder's restore
// job; here only the encodings and obvious invariants are checked.
func DecodeTraceRef(w *TraceRef) (*core.TraceRef, error) {
	if w == nil {
		return nil, nil
	}
	if w.NAges <= 0 {
		return nil, fmt.Errorf("ckpt: trace ref with %d ages per draw", w.NAges)
	}
	if w.Draws < 0 || w.PassDraws < 0 || w.PassDraws > w.Draws {
		return nil, fmt.Errorf("ckpt: trace ref draw counts %d/%d inconsistent", w.PassDraws, w.Draws)
	}
	if w.Offset < 0 || w.PassOffset < 0 || w.PassOffset > w.Offset {
		return nil, fmt.Errorf("ckpt: trace ref offsets %d/%d inconsistent", w.PassOffset, w.Offset)
	}
	r := &core.TraceRef{
		Path:       w.Path,
		NAges:      w.NAges,
		Offset:     w.Offset,
		Draws:      w.Draws,
		PassOffset: w.PassOffset,
		PassDraws:  w.PassDraws,
		Stopped:    w.Stopped,
		ESS:        math.NaN(),
		RHat:       math.NaN(),
	}
	var err error
	if w.ESS != "" {
		if r.ESS, err = parseHexFloat(w.ESS); err != nil {
			return nil, fmt.Errorf("ckpt: trace ref ess: %w", err)
		}
	}
	if w.RHat != "" {
		if r.RHat, err = parseHexFloat(w.RHat); err != nil {
			return nil, fmt.Errorf("ckpt: trace ref rhat: %w", err)
		}
	}
	return r, nil
}

// EncodeStep converts a stepper snapshot to wire form. Every step must
// reference its sidecar trace: a snapshot's trace has no other form, so
// the snapshot of a run that records in memory carries none and is
// refused.
func EncodeStep(s *core.StepSnapshot) (*Step, error) {
	if s == nil {
		return nil, nil
	}
	if s.TraceRef == nil {
		return nil, fmt.Errorf("ckpt: %q step snapshot has no trace_ref: its run records in memory, and only runs that spill to a trace sidecar can be checkpointed", s.Sampler)
	}
	w := &Step{
		Sampler:         s.Sampler,
		Step:            s.Step,
		Cur:             s.Cur,
		Ladder:          EncodeLadder(s.Ladder),
		TraceRef:        EncodeTraceRef(s.TraceRef),
		Accepted:        s.Accepted,
		Proposals:       s.Proposals,
		FailedProposals: s.FailedProposals,
		Swaps:           s.Swaps,
		SwapAttempts:    s.SwapAttempts,
	}
	if s.Host != nil {
		host := EncodeRNG(*s.Host)
		w.Host = &host
	}
	for _, st := range s.Streams {
		w.Streams = append(w.Streams, EncodeRNG(st))
	}
	for _, c := range s.Chains {
		w.Chains = append(w.Chains, EncodeChain(c))
	}
	return w, nil
}

// DecodeStep converts a wire stepper snapshot back. Every step must
// reference its sidecar trace.
func DecodeStep(w *Step) (*core.StepSnapshot, error) {
	if w == nil {
		return nil, nil
	}
	if w.TraceRef == nil {
		return nil, fmt.Errorf("ckpt: %q step snapshot has no trace_ref", w.Sampler)
	}
	s := &core.StepSnapshot{
		Sampler: w.Sampler,
		Step:    w.Step,
		Cur:     w.Cur,
		Counters: core.Counters{
			Accepted:        w.Accepted,
			Proposals:       w.Proposals,
			FailedProposals: w.FailedProposals,
			Swaps:           w.Swaps,
			SwapAttempts:    w.SwapAttempts,
		},
	}
	if w.Host != nil {
		host, err := DecodeRNG(*w.Host)
		if err != nil {
			return nil, err
		}
		s.Host = &host
	}
	for i, st := range w.Streams {
		dec, err := DecodeRNG(st)
		if err != nil {
			return nil, fmt.Errorf("ckpt: stream %d: %w", i, err)
		}
		s.Streams = append(s.Streams, dec)
	}
	for i, c := range w.Chains {
		dec, err := DecodeChain(c)
		if err != nil {
			return nil, fmt.Errorf("ckpt: chain %d: %w", i, err)
		}
		s.Chains = append(s.Chains, dec)
	}
	ladder, err := DecodeLadder(w.Ladder)
	if err != nil {
		return nil, err
	}
	s.Ladder = ladder
	ref, err := DecodeTraceRef(w.TraceRef)
	if err != nil {
		return nil, err
	}
	s.TraceRef = ref
	return s, nil
}

// EncodeHistory converts an EM history to wire form.
func EncodeHistory(hs []core.EMIteration) []EMIteration {
	out := make([]EMIteration, 0, len(hs))
	for _, h := range hs {
		out = append(out, EMIteration{
			ThetaIn:        hexFloat(h.ThetaIn),
			ThetaOut:       hexFloat(h.ThetaOut),
			AcceptanceRate: hexFloat(h.AcceptanceRate),
			MeanLogLik:     hexFloat(h.MeanLogLik),
		})
	}
	return out
}

// DecodeHistory converts a wire EM history back.
func DecodeHistory(ws []EMIteration) ([]core.EMIteration, error) {
	out := make([]core.EMIteration, 0, len(ws))
	for i, w := range ws {
		var h core.EMIteration
		var err error
		if h.ThetaIn, err = parseHexFloat(w.ThetaIn); err == nil {
			if h.ThetaOut, err = parseHexFloat(w.ThetaOut); err == nil {
				if h.AcceptanceRate, err = parseHexFloat(w.AcceptanceRate); err == nil {
					h.MeanLogLik, err = parseHexFloat(w.MeanLogLik)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: history entry %d: %w", i, err)
		}
		out = append(out, h)
	}
	return out, nil
}

// EncodeEM converts an EM snapshot to wire form; it fails exactly when
// EncodeStep refuses the mid-flight pass.
func EncodeEM(s *core.EMSnapshot) (*EMState, error) {
	active, err := EncodeStep(s.Active)
	if err != nil {
		return nil, err
	}
	cur := EncodeTree(s.Cur)
	return &EMState{
		Theta:   hexFloat(s.Theta),
		It:      s.It,
		Cur:     &cur,
		History: EncodeHistory(s.History),
		Active:  active,
	}, nil
}

// DecodeEM converts a wire EM snapshot back.
func DecodeEM(w *EMState) (*core.EMSnapshot, error) {
	if w == nil {
		return nil, fmt.Errorf("ckpt: no EM state")
	}
	theta, err := parseHexFloat(w.Theta)
	if err != nil {
		return nil, err
	}
	if w.Cur == nil {
		return nil, fmt.Errorf("ckpt: EM state has no chain tree")
	}
	cur, err := DecodeTree(*w.Cur)
	if err != nil {
		return nil, err
	}
	history, err := DecodeHistory(w.History)
	if err != nil {
		return nil, err
	}
	active, err := DecodeStep(w.Active)
	if err != nil {
		return nil, err
	}
	return &core.EMSnapshot{Theta: theta, It: w.It, Cur: cur, History: history, Active: active}, nil
}
