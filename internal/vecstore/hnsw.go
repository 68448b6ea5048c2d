package vecstore

import (
	"fmt"
	"math"
	"sync"

	"v2v/internal/f32"
	"v2v/internal/xrand"
)

// HNSWConfig tunes the hierarchical navigable small world index; see
// docs/INDEXES.md for the recall/latency trade-off and tuning guide.
type HNSWConfig struct {
	// M is the target out-degree per node and level (0 = 16). Level 0
	// keeps up to 2*M links. Larger M raises recall and memory.
	M int
	// EfConstruction is the beam width of the insert-time search
	// (0 = 200). Larger values build a better graph, slower.
	EfConstruction int
	// EfSearch is the default beam width of the query-time search
	// (0 = 128); queries use max(EfSearch, k). Larger values raise
	// recall at the cost of latency.
	EfSearch int
	// Seed drives level sampling. Builds are deterministic for a fixed
	// seed regardless of Workers: insertion is sequential in row order
	// and Workers only parallelizes SearchBatch. The graph also depends
	// on the float32 kernel path the routing distances run on (AVX2/FMA
	// assembly or the scalar loops, see internal/f32), so a fixed seed
	// reproduces a graph on machines that select the same path.
	Seed uint64
	// Workers bounds batch-query parallelism (0 = GOMAXPROCS).
	Workers int

	// scalarKernels pins the routing distances to the portable scalar
	// loops, so tests can cover both kernel paths on one machine.
	scalarKernels bool
}

// HNSW defaults.
const (
	defaultHNSWM    = 16
	defaultHNSWEfC  = 200
	defaultHNSWEf   = 128
	maxHNSWLevel    = 63 // level sampling cap; P(level > 63) is astronomically small
	hnswLevelStream = 0x9E3779B97F4A7C15
)

// hnswNode is one vertex of the layered proximity graph: friends[l]
// are its out-neighbors at level l, so len(friends)-1 is its top
// level.
type hnswNode struct {
	friends [][]int32
}

// HNSW is a hierarchical navigable small world index (Malkov &
// Yashunin, 2016): a stack of proximity graphs where upper layers are
// exponentially sparser samples used for coarse routing and layer 0
// holds every row. A query greedily descends to layer 0, then runs a
// bounded best-first beam (efSearch) there. Search cost grows roughly
// logarithmically with the store size — sublinear where Exact and IVF
// stay linear in rows and cells respectively — at the price of
// approximate results and an O(n log n) build.
//
// Graph routing (build, descent and the beam) compares float32
// distances from the internal/f32 kernels; a query rescores the 2k
// closest candidates with the exact float64 kernels and returns the
// best k, so every reported score equals the one Exact gives for that
// row.
//
// Build is sequential and deterministic for a fixed seed on one
// kernel path; queries are safe for arbitrary concurrency once
// NewHNSW returns. A graph is valid input to either path: a bundle
// built on one binds and serves on the other.
//
// HNSW implements MutableIndex: Insert reuses the build-time level
// sampling (continuing the build's deterministic RNG stream) and
// diversity-pruned linking for one new row, and Delete tombstones a
// row — it keeps routing searches through the graph but is filtered
// out of results, the standard mark-deleted scheme (reclaimed by a
// compaction rebuild). Mutations hold the writer lock; queries share
// the reader lock.
type HNSW struct {
	s        *Store
	metric   Metric
	m        int // max links per node per level > 0
	mmax0    int // max links at level 0 (2*M)
	efc      int
	ef       int
	workers  int
	seed     uint64
	entry    int32
	maxLevel int
	nodes    []hnswNode
	scalar   bool // route on the scalar kernels (HNSWConfig.scalarKernels)

	// mu guards graph and store mutation against concurrent queries;
	// rng/mL continue the build's level-sampling stream for
	// incremental inserts; builtMuts detects out-of-band SetRow.
	mu        sync.RWMutex
	rng       *xrand.RNG
	mL        float64
	builtMuts uint64

	scratch sync.Pool // *hnswScratch, sized to the store
}

// NewHNSW builds the layered graph by sequential insertion in row
// order. Level sampling consumes one deterministic RNG stream per row,
// so the graph depends only on (store contents, metric, cfg.M,
// cfg.EfConstruction, cfg.Seed) and the float32 kernel path the CPU
// selects: two builds on the same path give the same graph.
func NewHNSW(s *Store, metric Metric, cfg HNSWConfig) (*HNSW, error) {
	m := cfg.M
	if m <= 0 {
		m = defaultHNSWM
	}
	if m > 1024 {
		return nil, fmt.Errorf("vecstore: HNSW M %d is implausibly large (max 1024)", m)
	}
	efc := cfg.EfConstruction
	if efc <= 0 {
		efc = defaultHNSWEfC
	}
	if efc < m {
		efc = m // the insert beam must at least cover the links it selects
	}
	ef := cfg.EfSearch
	if ef <= 0 {
		ef = defaultHNSWEf
	}
	h := &HNSW{
		s:       s,
		metric:  metric,
		m:       m,
		mmax0:   2 * m,
		efc:     efc,
		ef:      ef,
		workers: normWorkers(cfg.Workers),
		seed:    cfg.Seed,
		entry:   -1,
		nodes:   make([]hnswNode, s.Len()),
		scalar:  cfg.scalarKernels,
	}
	s.SqNorms() // precompute so build and concurrent queries never race the cache

	// mL = 1/ln(M), the level normalization from the paper. The RNG
	// stays on the struct: incremental Insert continues the same
	// stream, so batch-building n rows and batch-building n-j then
	// inserting j produce identically-distributed levels.
	h.mL = 1 / math.Log(float64(m))
	h.rng = xrand.New(cfg.Seed ^ hnswLevelStream)
	sc := h.newScratch()
	for i := 0; i < s.Len(); i++ {
		h.insert(int32(i), h.sampleLevel(h.rng, h.mL), sc)
	}
	h.scratch.Put(sc)
	h.builtMuts = s.Mutations()
	return h, nil
}

// Insert implements MutableIndex: it appends v to the store and links
// it into the graph with the same level sampling and diversity
// pruning as the batch build, returning the new row ID. Safe to call
// concurrently with queries (writer-locked).
func (h *HNSW) Insert(v []float32) (int, error) {
	if len(v) != h.s.Dim() {
		return 0, fmt.Errorf("vecstore: Insert dim %d does not match store dim %d", len(v), h.s.Dim())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checkCoherent()
	id := h.s.AppendRow(v)
	h.nodes = append(h.nodes, hnswNode{})
	sc := h.getScratch()
	h.insert(int32(id), h.sampleLevel(h.rng, h.mL), sc)
	h.scratch.Put(sc)
	return id, nil
}

// Delete implements MutableIndex: the row is tombstoned — still a
// routing node for graph descent, never a result. Reclaimed (links
// and storage) by a compaction rebuild.
func (h *HNSW) Delete(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.Delete(id)
}

// checkCoherent panics with a descriptive message when the store was
// mutated behind the graph's back — an in-place SetRow (adjacency
// silently stale) or a direct append (rows unreachable by any
// descent). This replaces the old failure mode of silently wrong
// results; callers that mutate must rebuild, or route writes through
// Insert/Delete.
func (h *HNSW) checkCoherent() {
	if h.s.Mutations() != h.builtMuts {
		panic("vecstore: HNSW index is stale: Store.SetRow overwrote rows after the graph was built, leaving adjacency lists out of date; rebuild the index or apply writes through MutableIndex.Insert/Delete")
	}
	if len(h.nodes) != h.s.Len() {
		panic(fmt.Sprintf("vecstore: HNSW graph covers %d of %d store rows: rows were appended to the store without MutableIndex.Insert", len(h.nodes), h.s.Len()))
	}
}

// sampleLevel draws floor(-ln(U) * mL), the paper's exponentially
// decaying level distribution, capped to keep adversarial RNG draws
// from building a degenerate tower.
func (h *HNSW) sampleLevel(rng *xrand.RNG, mL float64) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	l := int(-math.Log(u) * mL)
	if l > maxHNSWLevel {
		l = maxHNSWLevel
	}
	return l
}

// dist is the routing distance from query q (squared norm qn) to row
// i, smaller is closer: the negated cosine or inner product, or the
// squared Euclidean distance, computed on the float32 kernels. It
// orders rows like the exact scores up to float32 rounding; search
// rescores what it returns with scoreRow.
func (h *HNSW) dist(q []float32, qn float64, i int32) float64 {
	r := h.s.Row(int(i))
	switch h.metric {
	case Euclidean:
		return h.sqDist(q, r)
	case Cosine:
		return -cosineFromDot(h.dot(q, r), qn, h.s.SqNorms()[i])
	default:
		return -h.dot(q, r)
	}
}

// dot and sqDist run the f32 kernels, or their scalar references when
// the index was built with HNSWConfig.scalarKernels.
func (h *HNSW) dot(a, b []float32) float64 {
	if h.scalar {
		return float64(f32.DotScalar(a, b))
	}
	return float64(f32.Dot(a, b))
}

func (h *HNSW) sqDist(a, b []float32) float64 {
	if h.scalar {
		return float64(f32.SqDistScalar(a, b))
	}
	return float64(f32.SqDist(a, b))
}

// distRows is dist with stored row a as the query.
func (h *HNSW) distRows(a, b int32) float64 {
	return h.dist(h.s.Row(int(a)), h.s.SqNorms()[a], b)
}

// insert links row i into the graph at levels [0, level].
func (h *HNSW) insert(i int32, level int, sc *hnswScratch) {
	h.nodes[i].friends = make([][]int32, level+1)
	if h.entry < 0 {
		h.entry, h.maxLevel = i, level
		return
	}
	q := h.s.Row(int(i))
	qn := h.s.SqNorms()[i]

	// Greedy descent through the layers above the new node's level.
	ep := h.entry
	epDist := h.dist(q, qn, ep)
	for l := h.maxLevel; l > level; l-- {
		ep, epDist = h.greedyStep(q, qn, ep, epDist, l)
	}

	// Beam search each level from min(level, maxLevel) down to 0,
	// wiring bidirectional links as we go.
	eps := sc.eps[:0]
	eps = append(eps, ep)
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		h.searchLayer(q, qn, eps, l, h.efc, sc)
		cands := sc.extractAsc()
		// Copy the selection before wiring back-links: shrink reuses
		// the selection scratch.
		h.nodes[i].friends[l] = append([]int32(nil), h.selectNeighbors(cands, h.m, sc)...)
		limit := h.mmax0
		if l > 0 {
			limit = h.m
		}
		for _, nb := range h.nodes[i].friends[l] {
			fr := append(h.nodes[nb].friends[l], i)
			if len(fr) > limit {
				fr = h.shrink(nb, fr, limit, sc)
			}
			h.nodes[nb].friends[l] = fr
		}
		// Next level down starts from everything this beam found.
		eps = eps[:0]
		for _, c := range cands {
			eps = append(eps, c.id)
		}
	}
	sc.eps = eps
	if level > h.maxLevel {
		h.entry, h.maxLevel = i, level
	}
}

// greedyStep walks from ep to the locally closest node at level l
// (ef = 1 descent).
func (h *HNSW) greedyStep(q []float32, qn float64, ep int32, epDist float64, l int) (int32, float64) {
	for {
		improved := false
		for _, e := range h.nodes[ep].friends[l] {
			if d := h.dist(q, qn, e); d < epDist {
				ep, epDist = e, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// hcand is a graph-search candidate: a row and its distance to the
// query.
type hcand struct {
	id   int32
	dist float64
}

// closer orders candidates nearest-first, ties toward the smaller ID
// so searches are deterministic.
func closer(a, b hcand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// hnswScratch is the reusable per-search state: an epoch-tagged
// visited set (cleared in O(1) by bumping the epoch), the candidate
// min-heap, the bounded result max-heap, and small reusable slices.
type hnswScratch struct {
	visited []uint32
	epoch   uint32
	cand    candHeap
	res     resultHeap
	eps     []int32
	asc     []hcand
	sel     []int32
}

func (h *HNSW) newScratch() *hnswScratch {
	// Slack beyond the current row count so a stream of incremental
	// inserts does not reallocate the visited set per row.
	n := h.s.Len()
	buf := make([]uint32, n+n/2+64)
	return &hnswScratch{visited: buf[:n]}
}

func (h *HNSW) getScratch() *hnswScratch {
	n := h.s.Len()
	if sc, ok := h.scratch.Get().(*hnswScratch); ok && cap(sc.visited) >= n {
		// Growing within capacity is safe: the extension holds zeros
		// (never a live epoch) or epochs from earlier searches, which
		// begin()'s epoch bump makes stale.
		sc.visited = sc.visited[:n]
		return sc
	}
	return h.newScratch()
}

// begin opens a fresh visited epoch.
func (sc *hnswScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear and restart
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.cand.h = sc.cand.h[:0]
	sc.res.h = sc.res.h[:0]
}

// seen marks id visited, reporting whether it already was.
func (sc *hnswScratch) seen(id int32) bool {
	if sc.visited[id] == sc.epoch {
		return true
	}
	sc.visited[id] = sc.epoch
	return false
}

// extractAsc drains the result heap into an ascending-distance slice
// (closest first), reusing scratch storage.
func (sc *hnswScratch) extractAsc() []hcand {
	n := len(sc.res.h)
	if cap(sc.asc) < n {
		sc.asc = make([]hcand, n)
	}
	sc.asc = sc.asc[:n]
	for i := n - 1; i >= 0; i-- {
		sc.asc[i] = sc.res.pop()
	}
	return sc.asc
}

// searchLayer runs the bounded best-first beam search of the paper's
// Algorithm 2: expand the closest unexpanded candidate until the beam
// cannot improve the ef retained results. Results are left in sc.res.
func (h *HNSW) searchLayer(q []float32, qn float64, eps []int32, level, ef int, sc *hnswScratch) {
	sc.begin()
	for _, ep := range eps {
		if sc.seen(ep) {
			continue
		}
		d := h.dist(q, qn, ep)
		sc.cand.push(hcand{ep, d})
		sc.res.push(hcand{ep, d})
	}
	for len(sc.res.h) > ef {
		sc.res.pop()
	}
	for len(sc.cand.h) > 0 {
		c := sc.cand.pop()
		if len(sc.res.h) == ef && c.dist > sc.res.h[0].dist {
			break
		}
		friends := h.nodes[c.id].friends
		if level >= len(friends) {
			continue
		}
		for _, e := range friends[level] {
			if sc.seen(e) {
				continue
			}
			d := h.dist(q, qn, e)
			if len(sc.res.h) < ef {
				sc.cand.push(hcand{e, d})
				sc.res.push(hcand{e, d})
			} else if d < sc.res.h[0].dist {
				sc.cand.push(hcand{e, d})
				sc.res.replaceTop(hcand{e, d})
			}
		}
	}
}

// selectNeighbors is the paper's Algorithm 4 heuristic: walking the
// candidates nearest-first, keep one only if it is closer to the new
// node than to every neighbor already kept — links then span distinct
// directions instead of piling into one cluster. Discarded candidates
// back-fill any remaining capacity (keepPrunedConnections), so low-
// degree regions stay reachable.
func (h *HNSW) selectNeighbors(cands []hcand, m int, sc *hnswScratch) []int32 {
	sel := sc.sel[:0]
	var spilled []hcand
	for _, c := range cands {
		if len(sel) >= m {
			break
		}
		good := true
		for _, kept := range sel {
			if h.distRows(c.id, kept) < c.dist {
				good = false
				break
			}
		}
		if good {
			sel = append(sel, c.id)
		} else if len(spilled) < m {
			spilled = append(spilled, c)
		}
	}
	for _, c := range spilled {
		if len(sel) >= m {
			break
		}
		sel = append(sel, c.id)
	}
	sc.sel = sel
	return sel
}

// shrink re-selects a node's neighbor list after it exceeded its
// degree cap, using the same diversity heuristic as insertion.
func (h *HNSW) shrink(node int32, friends []int32, limit int, sc *hnswScratch) []int32 {
	cands := make([]hcand, len(friends))
	for i, f := range friends {
		cands[i] = hcand{f, h.distRows(node, f)}
	}
	sortCands(cands)
	sel := h.selectNeighbors(cands, limit, sc)
	out := friends[:0]
	return append(out, sel...)
}

// sortCands orders ascending by distance (insertion sort; lists are
// bounded by the degree caps).
func sortCands(cs []hcand) {
	for i := 1; i < len(cs); i++ {
		x := cs[i]
		j := i - 1
		for j >= 0 && closer(x, cs[j]) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = x
	}
}

// Store implements Index.
func (h *HNSW) Store() *Store { return h.s }

// Metric implements Index.
func (h *HNSW) Metric() Metric { return h.metric }

// M returns the graph's per-level degree target.
func (h *HNSW) M() int { return h.m }

// EfSearch returns the default query beam width.
func (h *HNSW) EfSearch() int { return h.ef }

// MaxLevel returns the top layer of the graph (0 for a flat graph).
func (h *HNSW) MaxLevel() int { return h.maxLevel }

// Search implements Index.
func (h *HNSW) Search(q []float32, k int) []Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := h.getScratch()
	res := h.search(q, k, -1, nil, sc)
	h.scratch.Put(sc)
	return res
}

// SearchRow implements Index.
func (h *HNSW) SearchRow(i, k int) []Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := h.getScratch()
	res := h.search(h.s.Row(i), k, i, nil, sc)
	h.scratch.Put(sc)
	return res
}

func (h *HNSW) search(q []float32, k, exclude int, dst []Result, sc *hnswScratch) []Result {
	checkDim(h.s, q)
	h.checkCoherent()
	n := h.s.Len()
	k = clampK(k, n)
	if k <= 0 || h.entry < 0 {
		return dst
	}
	qn := queryNorm(h.metric, q)
	ep := h.entry
	epDist := h.dist(q, qn, ep)
	for l := h.maxLevel; l > 0; l-- {
		ep, epDist = h.greedyStep(q, qn, ep, epDist, l)
	}
	ef := h.ef
	if ef < k+1 { // +1 leaves room to drop an excluded self-hit
		ef = k + 1
	}
	if dead := h.s.Dead(); dead > 0 {
		// Tombstoned rows still occupy beam slots before being
		// filtered below; widen the beam (at most 2x, so worst-case
		// latency stays bounded — the compaction threshold bounds the
		// dead fraction long-term) to keep ~k live results surviving.
		extra := dead
		if extra > ef {
			extra = ef
		}
		ef += extra
	}
	if ef > n {
		ef = n
	}
	sc.eps = append(sc.eps[:0], ep)
	h.searchLayer(q, qn, sc.eps, 0, ef, sc)
	// The beam ranked candidates by float32 routing distance. Rescore
	// the 2k closest eligible ones with the exact kernels and keep the
	// best k: reported scores are exact, and a float32 near-tie at the
	// k-th place cannot push out a row whose exact score is higher.
	cands := sc.extractAsc()
	del := h.s.deleted
	start := len(dst)
	for _, c := range cands {
		if int(c.id) == exclude || (del != nil && del[c.id]) || len(dst)-start == 2*k {
			continue
		}
		dst = append(dst, Result{ID: int(c.id), Score: scoreRow(h.s, h.metric, q, qn, int(c.id))})
	}
	sortResults(dst[start:])
	if len(dst)-start > k {
		dst = dst[:start+k]
	}
	return dst
}

// SearchBatch implements Index: queries are sharded across the
// configured workers, each with its own scratch, so per-query
// allocation is amortized.
func (h *HNSW) SearchBatch(qs [][]float32, k int) [][]Result {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([][]Result, len(qs))
	k = clampK(k, h.s.Len())
	if k <= 0 || len(qs) == 0 {
		return out
	}
	for _, q := range qs {
		checkDim(h.s, q)
	}
	parallelRange(len(qs), h.workers, func(lo, hi int) {
		sc := h.getScratch()
		// search rescores up to 2k candidates before it keeps k.
		buf := make([]Result, 0, (hi-lo+1)*k)
		for i := lo; i < hi; i++ {
			start := len(buf)
			buf = h.search(qs[i], k, -1, buf, sc)
			out[i] = buf[start:len(buf):len(buf)]
		}
		h.scratch.Put(sc)
	})
	return out
}

// ---- Graph export / import (snapshot persistence) -------------------

// HNSWGraph is the serializable topology of an HNSW index: everything
// except the vectors themselves, which live in the Store. The snapshot
// package persists it as the optional index-graph section so a server
// can load a prebuilt graph instead of re-inserting every row at
// startup (see internal/snapshot and docs/INDEXES.md).
type HNSWGraph struct {
	Metric   Metric
	M        int
	EfSearch int
	Entry    int32
	Friends  [][][]int32 // per row, per level: out-neighbors
}

// Graph exports the index topology for persistence. The adjacency is
// deep-copied under the reader lock: a concurrent Insert rewires
// neighbor lists in place (the shrink path rewrites their backing
// arrays), so returning aliases would hand the caller a torn,
// racing snapshot. Tombstones are not part of the topology: compact
// (rebuild over the live rows) before persisting a graph that has
// seen deletes, or the deletions are lost on reload.
func (h *HNSW) Graph() *HNSWGraph {
	h.mu.RLock()
	defer h.mu.RUnlock()
	friends := make([][][]int32, len(h.nodes))
	for i := range h.nodes {
		levels := make([][]int32, len(h.nodes[i].friends))
		for l, links := range h.nodes[i].friends {
			levels[l] = append([]int32(nil), links...)
		}
		friends[i] = levels
	}
	return &HNSWGraph{
		Metric:   h.metric,
		M:        h.m,
		EfSearch: h.ef,
		Entry:    h.entry,
		Friends:  friends,
	}
}

// HNSWFromGraph rebinds a persisted topology to its vector store,
// validating shape and every link so a corrupt or mismatched graph
// fails cleanly instead of panicking at query time. efSearch and
// workers override the persisted defaults when > 0.
func HNSWFromGraph(s *Store, g *HNSWGraph, efSearch, workers int) (*HNSW, error) {
	if len(g.Friends) != s.Len() {
		return nil, fmt.Errorf("vecstore: HNSW graph has %d nodes for a %d-row store", len(g.Friends), s.Len())
	}
	if g.M <= 0 {
		return nil, fmt.Errorf("vecstore: HNSW graph has invalid M %d", g.M)
	}
	n := int32(s.Len())
	entry := g.Entry
	maxLevel := 0
	if n == 0 {
		entry = -1
	} else {
		if entry < 0 || entry >= n {
			return nil, fmt.Errorf("vecstore: HNSW graph entry point %d out of range [0, %d)", entry, n)
		}
		maxLevel = len(g.Friends[entry]) - 1
	}
	nodes := make([]hnswNode, s.Len())
	for i, fr := range g.Friends {
		if len(fr) == 0 {
			return nil, fmt.Errorf("vecstore: HNSW graph node %d has no levels", i)
		}
		if len(fr)-1 > maxLevel {
			return nil, fmt.Errorf("vecstore: HNSW graph node %d reaches level %d above the entry point's %d", i, len(fr)-1, maxLevel)
		}
		for l, links := range fr {
			for _, e := range links {
				if e < 0 || e >= n {
					return nil, fmt.Errorf("vecstore: HNSW graph node %d level %d links to out-of-range row %d", i, l, e)
				}
				if l >= len(g.Friends[e]) {
					return nil, fmt.Errorf("vecstore: HNSW graph node %d level %d links to row %d which only reaches level %d", i, l, e, len(g.Friends[e])-1)
				}
			}
		}
		nodes[i].friends = fr
	}
	ef := g.EfSearch
	if efSearch > 0 {
		ef = efSearch
	}
	if ef <= 0 {
		ef = defaultHNSWEf
	}
	s.SqNorms()
	return &HNSW{
		s:        s,
		metric:   g.Metric,
		m:        g.M,
		mmax0:    2 * g.M,
		efc:      defaultHNSWEfC,
		ef:       ef,
		workers:  normWorkers(workers),
		entry:    entry,
		maxLevel: maxLevel,
		nodes:    nodes,
		// Incremental inserts over a rebound graph sample levels from a
		// fresh stream (the build-time stream position is not
		// persisted); mL depends only on M, so the distribution is
		// identical.
		mL:        1 / math.Log(float64(g.M)),
		rng:       xrand.New(hnswLevelStream ^ uint64(len(g.Friends))),
		builtMuts: s.Mutations(),
	}, nil
}

// ---- Heaps ----------------------------------------------------------

// candHeap is a min-heap by distance: pop returns the closest
// candidate (the beam's next expansion).
type candHeap struct{ h []hcand }

func (q *candHeap) push(c hcand) {
	q.h = append(q.h, c)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *candHeap) pop() hcand {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && closer(q.h[l], q.h[best]) {
			best = l
		}
		if r < last && closer(q.h[r], q.h[best]) {
			best = r
		}
		if best == i {
			return top
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}

// resultHeap is a max-heap by distance: h[0] is the farthest retained
// result, so a bounded beam evicts in O(log ef).
type resultHeap struct{ h []hcand }

func (q *resultHeap) push(c hcand) {
	q.h = append(q.h, c)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(q.h[p], q.h[i]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *resultHeap) pop() hcand {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.down()
	return top
}

// replaceTop evicts the farthest result in favor of c, which must be
// closer: the retained set equals a push followed by a pop, with one
// sift instead of two.
func (q *resultHeap) replaceTop(c hcand) {
	q.h[0] = c
	q.down()
}

// down restores the heap order below the root.
func (q *resultHeap) down() {
	last := len(q.h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < last && closer(q.h[worst], q.h[l]) {
			worst = l
		}
		if r < last && closer(q.h[worst], q.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		q.h[i], q.h[worst] = q.h[worst], q.h[i]
		i = worst
	}
}
