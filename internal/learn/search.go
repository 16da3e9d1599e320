package learn

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prmsel/internal/obs"
)

// VarSpec describes one variable visible to structure search.
type VarSpec struct {
	Name string
	Card int
}

// Oracle is the data- and schema-dependent half of structure search. The
// single-table BN learner and the PRM learner each provide one; Search
// itself is representation-agnostic.
type Oracle interface {
	// Vars lists the variables (attributes and, for PRMs, join indicators).
	Vars() []VarSpec
	// CandidateParents returns the ids that may appear in child's parent
	// set (legality beyond acyclicity, which Search enforces globally).
	CandidateParents(child int) []int
	// Fit estimates child's CPD for the chosen parent set. The oracle may
	// expand the set with structurally-required parents (a PRM adds the
	// join indicator when a cross-table parent is chosen); expanded is the
	// final parent list the CPD is defined over. maxBytes > 0 caps the
	// CPD's storage (tree growth stops at the cap; representations with
	// fixed size simply report their cost and the search rejects the move).
	Fit(child int, parents []int, maxBytes int) (expanded []int, fr FitResult, err error)
}

// Criterion selects among candidate search steps (paper §4.3.3).
type Criterion int

const (
	// SSN picks the step with the best likelihood gain per added byte
	// (storage-size normalized).
	SSN Criterion = iota
	// MDL picks the step with the best minimum-description-length gain.
	MDL
	// Naive picks the raw largest likelihood gain.
	Naive
)

func (c Criterion) String() string {
	switch c {
	case MDL:
		return "mdl"
	case Naive:
		return "naive"
	default:
		return "ssn"
	}
}

// maxSteps is Search's safety bound on applied steps.
const maxSteps = 500

// Options configures Search. CPD representation (tree vs table) and tree
// growth tuning belong to the Oracle, which owns fitting.
type Options struct {
	Criterion   Criterion // SSN (default), MDL or Naive
	BudgetBytes int       // model storage budget; 0 = unlimited
	MaxParents  int       // per-variable parent bound; 0 = unlimited
	RandomSteps int       // random escape steps after a local maximum
	Seed        int64     // seed for the escape steps
	// Workers parallelizes candidate fitting across goroutines. The search
	// stays deterministic: workers only warm the fit cache; move selection
	// remains sequential. 0 or 1 means serial. The Oracle must be safe for
	// concurrent Fit calls when Workers > 1 (both built-in oracles are,
	// provided CandidateParents has been called once — Search does so).
	Workers int
	// Progress, when non-nil, receives one event per accepted search move —
	// including random escape steps. It is called from Search's goroutine,
	// synchronously; a slow callback slows the search.
	Progress func(MoveEvent)
	// Trace, when non-nil, records the search under it as a "search" child
	// span with one zero-duration "move" event per accepted step.
	Trace *obs.Span
}

// MoveEvent describes one accepted hill-climbing step: what changed, what
// it bought (likelihood) and cost (bytes), and where the structure stands
// against its budget afterwards.
type MoveEvent struct {
	Step        int    // 1-based index over applied steps
	Kind        string // "add", "remove" or "escape"
	Child       int    // variable whose parent set changed
	ChildName   string
	DeltaLogLik float64
	DeltaBytes  int
	Value       float64 // criterion value that ranked the move
	Criterion   string
	LogLik      float64 // structure log-likelihood after the move
	Bytes       int     // structure bytes after the move
	BudgetBytes int
}

// Result is a learned dependency structure.
type Result struct {
	Parents [][]int // expanded parent lists, per variable
	Fits    []FitResult
	LogLik  float64
	Bytes   int
	Steps   int
}

type fitEntry struct {
	expanded []int
	fr       FitResult
	cap      int // byte cap the fit was computed under (0 = unlimited)
}

// searcher carries the mutable hill-climbing state.
type searcher struct {
	o      Oracle
	vars   []VarSpec
	opts   Options
	chosen [][]int // parents as requested by search moves
	exp    [][]int // expanded parents (with oracle-forced additions)
	fits   []FitResult
	cache  map[string][]fitEntry
	mu     sync.Mutex // guards cache during parallel prefetch
	rng    *rand.Rand
	span   *obs.Span // "search" span under opts.Trace; nil when untraced
}

// emit reports an accepted move to Progress and the trace span.
func (s *searcher) emit(kind string, m *move, step int) {
	if s.opts.Progress == nil && s.span == nil {
		return
	}
	ev := MoveEvent{
		Step:        step,
		Kind:        kind,
		Child:       m.child,
		ChildName:   s.vars[m.child].Name,
		DeltaLogLik: m.dLL,
		DeltaBytes:  m.dBytes,
		Value:       s.value(m),
		Criterion:   s.opts.Criterion.String(),
		LogLik:      s.totalLogLik(),
		Bytes:       s.totalBytes(),
		BudgetBytes: s.opts.BudgetBytes,
	}
	if s.opts.Progress != nil {
		s.opts.Progress(ev)
	}
	s.span.Event("move",
		obs.Int("step", ev.Step),
		obs.Str("kind", ev.Kind),
		obs.Str("child", ev.ChildName),
		obs.Float("dll", ev.DeltaLogLik),
		obs.Int("dbytes", ev.DeltaBytes),
		obs.Float("value", ev.Value),
		obs.Str("criterion", ev.Criterion),
		obs.Float("loglik", ev.LogLik),
		obs.Int("bytes", ev.Bytes),
		obs.Int("budget", ev.BudgetBytes),
	)
}

// Search runs greedy hill climbing from the empty structure, applying at
// each step the add-parent or remove-parent move that the criterion ranks
// best, subject to global acyclicity and the byte budget; after a local
// maximum it takes RandomSteps random legal moves and resumes, returning
// the best structure seen.
func Search(o Oracle, opts Options) (*Result, error) {
	s := &searcher{
		o:     o,
		vars:  o.Vars(),
		opts:  opts,
		cache: make(map[string][]fitEntry),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		span:  opts.Trace.Start("search"),
	}
	defer s.span.End()
	n := len(s.vars)
	s.chosen = make([][]int, n)
	s.exp = make([][]int, n)
	s.fits = make([]FitResult, n)
	// Warm the oracle's candidate caches serially so concurrent Fit
	// prefetching never races on them.
	for v := 0; v < n; v++ {
		s.o.CandidateParents(v)
	}
	for v := 0; v < n; v++ {
		exp, fr, err := s.fit(v, nil, 0)
		if err != nil {
			return nil, err
		}
		s.exp[v], s.fits[v] = exp, fr
	}
	// The empty structure (independent marginals) is the floor: when the
	// budget sits below it no move can help, so the floor itself is
	// returned — matching the evaluation setting, where the smallest
	// budgets are below the cost of full-resolution marginals.
	if opts.BudgetBytes > 0 && s.totalBytes() > opts.BudgetBytes {
		floor := s.snapshot()
		s.summarize(floor, 0, opts)
		return floor, nil
	}

	best := s.snapshot()
	steps, escapes := 0, opts.RandomSteps
	for steps < maxSteps {
		mv := s.bestMove()
		if mv == nil {
			if escapes <= 0 {
				break
			}
			rm := s.randomMove()
			if rm == nil {
				break
			}
			escapes--
			steps++
			s.emit("escape", rm, steps)
			continue
		}
		kind := "add"
		if len(mv.parents) < len(s.chosen[mv.child]) {
			kind = "remove"
		}
		s.apply(mv)
		steps++
		s.emit(kind, mv, steps)
		if s.totalLogLik() > best.LogLik {
			best = s.snapshot()
			best.Steps = steps
		}
	}
	if s.totalLogLik() > best.LogLik {
		best = s.snapshot()
		best.Steps = steps
	}
	s.summarize(best, steps, opts)
	return best, nil
}

// summarize stamps the search span with the run's outcome (a no-op when
// untraced).
func (s *searcher) summarize(best *Result, steps int, opts Options) {
	s.span.Set(
		obs.Int("vars", len(s.vars)),
		obs.Int("steps", steps),
		obs.Int("best_step", best.Steps),
		obs.Float("loglik", best.LogLik),
		obs.Int("bytes", best.Bytes),
		obs.Int("budget", opts.BudgetBytes),
		obs.Str("criterion", opts.Criterion.String()),
	)
}

func (s *searcher) snapshot() *Result {
	r := &Result{
		Parents: make([][]int, len(s.exp)),
		Fits:    append([]FitResult(nil), s.fits...),
		LogLik:  s.totalLogLik(),
		Bytes:   s.totalBytes(),
	}
	for v, e := range s.exp {
		r.Parents[v] = append([]int(nil), e...)
	}
	return r
}

func (s *searcher) totalLogLik() float64 {
	var ll float64
	for _, f := range s.fits {
		ll += f.LogLik
	}
	return ll
}

func (s *searcher) totalBytes() int {
	b := 0
	for v, f := range s.fits {
		b += f.Bytes + len(s.exp[v]) // 1 byte per structure edge
	}
	return b
}

// fit returns the (cached) fit of child with the given chosen parents
// under the given byte cap (0 = unlimited). Fits are monotone in the cap:
// greedy growth under cap C1 that ends at B1 ≤ C2 ≤ C1 bytes is byte-for-
// byte what growth under C2 would produce, so such entries are reused
// rather than refitted — this is what keeps hill climbing from rescanning
// the data as the remaining budget drifts between iterations.
func (s *searcher) fit(child int, parents []int, maxBytes int) ([]int, FitResult, error) {
	key := fitKey(child, parents)
	s.mu.Lock()
	entries := s.cache[key]
	s.mu.Unlock()
	for _, e := range entries {
		switch {
		case e.cap == 0 && maxBytes == 0:
			return e.expanded, e.fr, nil
		case e.cap == 0 && e.fr.Bytes <= maxBytes:
			// Unlimited growth already fits under the requested cap.
			return e.expanded, e.fr, nil
		case maxBytes > 0 && e.cap >= maxBytes && e.fr.Bytes <= maxBytes:
			return e.expanded, e.fr, nil
		case maxBytes > 0 && e.cap == maxBytes:
			return e.expanded, e.fr, nil
		}
	}
	exp, fr, err := s.o.Fit(child, parents, maxBytes)
	if err != nil {
		return nil, FitResult{}, err
	}
	s.mu.Lock()
	s.cache[key] = append(s.cache[key], fitEntry{expanded: exp, fr: fr, cap: maxBytes})
	s.mu.Unlock()
	return exp, fr, nil
}

func fitKey(child int, parents []int) string {
	ps := append([]int(nil), parents...)
	sort.Ints(ps)
	var b strings.Builder
	b.WriteString(strconv.Itoa(child))
	for _, p := range ps {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// move is one candidate search step.
type move struct {
	child    int
	parents  []int // new chosen parent set
	expanded []int
	fr       FitResult
	dLL      float64
	dBytes   int
}

// value ranks the move under the configured criterion; larger is better,
// and only moves with value > 0 are applied.
func (s *searcher) value(m *move) float64 {
	switch s.opts.Criterion {
	case Naive:
		return m.dLL
	case MDL:
		// Likelihood is in nats; model bits converted to nats for a
		// common unit: MDL gain = Δll − ln2 · 8 · Δbytes.
		return m.dLL - math.Ln2*8*float64(m.dBytes)
	default: // SSN
		if m.dLL <= 0 {
			return m.dLL // never positive: rejected
		}
		if m.dBytes <= 0 {
			// Free (or shrinking) improvement: rank above any ratio.
			return math.Inf(1)
		}
		return m.dLL / float64(m.dBytes)
	}
}

// candidateMoves enumerates the parent sets of every legal add/remove move
// from the current structure.
func (s *searcher) candidateMoves() (children []int, parentSets [][]int) {
	for child := range s.vars {
		for _, p := range s.o.CandidateParents(child) {
			if containsInt(s.chosen[child], p) {
				continue
			}
			if s.opts.MaxParents > 0 && len(s.chosen[child]) >= s.opts.MaxParents {
				continue
			}
			children = append(children, child)
			parentSets = append(parentSets, append(append([]int(nil), s.chosen[child]...), p))
		}
		for i := range s.chosen[child] {
			np := make([]int, 0, len(s.chosen[child])-1)
			np = append(np, s.chosen[child][:i]...)
			np = append(np, s.chosen[child][i+1:]...)
			children = append(children, child)
			parentSets = append(parentSets, np)
		}
	}
	return children, parentSets
}

// prefetch warms the fit cache for every candidate move using a worker
// pool. Errors are swallowed here and resurface (deterministically) when
// the serial scan refits the same arguments.
func (s *searcher) prefetch(children []int, parentSets [][]int) {
	workers := s.opts.Workers
	if workers > len(children) {
		workers = len(children)
	}
	if workers < 2 {
		return
	}
	caps := make([]int, len(children))
	skip := make([]bool, len(children))
	for i, child := range children {
		caps[i], skip[i] = s.fitCap(child, parentSets[i])
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if !skip[i] {
					_, _, _ = s.fit(children[i], parentSets[i], caps[i])
				}
			}
		}()
	}
	for i := range children {
		work <- i
	}
	close(work)
	wg.Wait()
}

// fitCap computes the byte cap a fit of child with the given parents would
// get under the current budget; skip reports that the move is hopeless
// (no allowance left).
func (s *searcher) fitCap(child int, parents []int) (cap int, skip bool) {
	if s.opts.BudgetBytes <= 0 {
		return 0, false
	}
	otherBytes := s.totalBytes() - s.fits[child].Bytes - len(s.exp[child])
	cap = s.opts.BudgetBytes - otherBytes - (len(parents) + 1)
	return cap, cap <= 0
}

// bestMove scans all add/remove moves and returns the best positive-value
// one, or nil at a local maximum.
func (s *searcher) bestMove() *move {
	if s.opts.Workers > 1 {
		children, parentSets := s.candidateMoves()
		s.prefetch(children, parentSets)
	}
	var best *move
	var bestVal float64
	consider := func(m *move) {
		if m == nil {
			return
		}
		v := s.value(m)
		if v <= 0 {
			return
		}
		if best == nil || v > bestVal || (v == bestVal && m.dLL > best.dLL) {
			best, bestVal = m, v
		}
	}
	for child := range s.vars {
		for _, p := range s.o.CandidateParents(child) {
			if containsInt(s.chosen[child], p) {
				continue
			}
			if s.opts.MaxParents > 0 && len(s.chosen[child]) >= s.opts.MaxParents {
				continue
			}
			consider(s.tryMove(child, append(append([]int(nil), s.chosen[child]...), p)))
		}
		for i := range s.chosen[child] {
			np := make([]int, 0, len(s.chosen[child])-1)
			np = append(np, s.chosen[child][:i]...)
			np = append(np, s.chosen[child][i+1:]...)
			consider(s.tryMove(child, np))
		}
	}
	return best
}

// tryMove evaluates replacing child's chosen parents, returning nil if the
// move is illegal (cyclic or over budget) or cannot be fitted. Under a
// byte budget the fit itself is capped at the child's allowance — the
// budget minus what every other variable currently uses — so tree CPDs
// grow exactly as far as the remaining space permits.
func (s *searcher) tryMove(child int, parents []int) *move {
	// Reserve one byte per likely structure edge of the new CPD.
	cap, skip := s.fitCap(child, parents)
	if skip {
		return nil
	}
	exp, fr, err := s.fit(child, parents, cap)
	if err != nil {
		return nil
	}
	if s.wouldCycle(child, exp) {
		return nil
	}
	dBytes := (fr.Bytes + len(exp)) - (s.fits[child].Bytes + len(s.exp[child]))
	if s.opts.BudgetBytes > 0 && s.totalBytes()+dBytes > s.opts.BudgetBytes {
		return nil
	}
	return &move{
		child:    child,
		parents:  parents,
		expanded: exp,
		fr:       fr,
		dLL:      fr.LogLik - s.fits[child].LogLik,
		dBytes:   dBytes,
	}
}

func (s *searcher) apply(m *move) {
	s.chosen[m.child] = m.parents
	s.exp[m.child] = m.expanded
	s.fits[m.child] = m.fr
}

// randomMove applies one random legal add move regardless of score, to
// escape a local maximum. Returns the applied move, or nil if no legal
// move exists.
func (s *searcher) randomMove() *move {
	type cand struct{ child, parent int }
	var cands []cand
	for child := range s.vars {
		if s.opts.MaxParents > 0 && len(s.chosen[child]) >= s.opts.MaxParents {
			continue
		}
		for _, p := range s.o.CandidateParents(child) {
			if !containsInt(s.chosen[child], p) {
				cands = append(cands, cand{child, p})
			}
		}
	}
	s.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, c := range cands {
		m := s.tryMove(c.child, append(append([]int(nil), s.chosen[c.child]...), c.parent))
		if m != nil {
			s.apply(m)
			return m
		}
	}
	return nil
}

// wouldCycle reports whether setting child's expanded parents to exp makes
// the global structure cyclic.
func (s *searcher) wouldCycle(child int, exp []int) bool {
	n := len(s.vars)
	parents := make([][]int, n)
	copy(parents, s.exp)
	parents[child] = exp
	state := make([]int8, n) // 0 unvisited, 1 in stack, 2 done
	var visit func(v int) bool
	visit = func(v int) bool {
		switch state[v] {
		case 1:
			return true
		case 2:
			return false
		}
		state[v] = 1
		for _, p := range parents[v] {
			if visit(p) {
				return true
			}
		}
		state[v] = 2
		return false
	}
	for v := 0; v < n; v++ {
		if visit(v) {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
