package vecstore

import (
	"reflect"
	"testing"

	"v2v/internal/xrand"
)

// recallVsExact measures recall@k of idx against the exact index over
// queries sampled from the store's own rows.
func recallVsExact(t *testing.T, s *Store, idx Index, k, trials int, seed uint64) float64 {
	t.Helper()
	exact := NewExact(s, idx.Metric(), 0)
	rng := xrand.New(seed)
	hits, total := 0, 0
	for trial := 0; trial < trials; trial++ {
		q := s.Row(rng.Intn(s.Len()))
		in := map[int]bool{}
		for _, r := range idx.Search(q, k) {
			in[r.ID] = true
		}
		for _, r := range exact.Search(q, k) {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(total)
}

func TestHNSWRecallAtLeast95(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	// Both data shapes the repo serves: clustered (embedding-like) and
	// unstructured gaussian (the adversarial case for graph indexes).
	for _, tc := range []struct {
		name string
		s    *Store
	}{
		{"clustered", clusteredStore(n, 32, 50, 71)},
		{"gaussian", randStore(n, 32, 73)},
	} {
		h, err := NewHNSW(tc.s, Cosine, HNSWConfig{Seed: 7}) // all defaults
		if err != nil {
			t.Fatal(err)
		}
		recall := recallVsExact(t, tc.s, h, 10, 100, 79)
		t.Logf("%s: HNSW recall@10 = %.4f (m=%d ef=%d maxLevel=%d)",
			tc.name, recall, h.M(), h.EfSearch(), h.MaxLevel())
		if recall < 0.95 {
			t.Errorf("%s: recall@10 = %.4f, want >= 0.95 at defaults", tc.name, recall)
		}
	}
}

func TestHNSWDeterministicAcrossWorkerCounts(t *testing.T) {
	s := clusteredStore(3000, 16, 20, 83)
	build := func(workers int) *HNSW {
		h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 3, Workers: workers, M: 8, EfConstruction: 60})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := build(1), build(8)
	for _, row := range []int{0, 123, 2999} {
		ra, rb := a.SearchRow(row, 10), b.SearchRow(row, 10)
		if len(ra) != len(rb) {
			t.Fatalf("row %d: result counts differ: %d vs %d", row, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d rank %d differs across build workers: %+v vs %+v", row, i, ra[i], rb[i])
			}
		}
	}
}

func TestHNSWSearchBatchMatchesSingle(t *testing.T) {
	s := clusteredStore(2000, 16, 10, 89)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 5, M: 8, EfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(97)
	qs := make([][]float32, 33)
	for i := range qs {
		qs[i] = s.Row(rng.Intn(s.Len()))
	}
	batch := h.SearchBatch(qs, 7)
	for i, q := range qs {
		single := h.Search(q, 7)
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", i, j, batch[i][j], single[j])
			}
		}
	}
}

func TestHNSWSearchRowExcludesSelf(t *testing.T) {
	s := clusteredStore(500, 8, 5, 101)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 9, M: 8, EfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{0, 250, 499} {
		res := h.SearchRow(row, 5)
		if len(res) != 5 {
			t.Fatalf("row %d: %d results, want 5", row, len(res))
		}
		for _, r := range res {
			if r.ID == row {
				t.Fatalf("row %d returned itself", row)
			}
		}
	}
}

func TestHNSWEdgeCases(t *testing.T) {
	empty := New(0, 4)
	h, err := NewHNSW(empty, Cosine, HNSWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(make([]float32, 4), 3); len(r) != 0 {
		t.Fatal("empty store returned results")
	}
	if b := h.SearchBatch(nil, 3); len(b) != 0 {
		t.Fatal("empty batch returned results")
	}

	single := randStore(1, 4, 107)
	h, err = NewHNSW(single, Cosine, HNSWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(single.Row(0), 5); len(r) != 1 || r[0].ID != 0 {
		t.Fatalf("single-row store: %+v", r)
	}
	if r := h.SearchRow(0, 5); len(r) != 0 {
		t.Fatalf("single-row SearchRow should be empty, got %+v", r)
	}

	small := randStore(7, 4, 109)
	h, err = NewHNSW(small, Cosine, HNSWConfig{M: 4, EfConstruction: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r := h.Search(small.Row(0), 100); len(r) != 7 {
		t.Fatalf("k>n returned %d results", len(r))
	}
	if r := h.Search(small.Row(0), 0); len(r) != 0 {
		t.Fatal("k=0 returned results")
	}
}

func TestHNSWSmallKExhaustive(t *testing.T) {
	// On a tiny store the beam covers everything, so HNSW must agree
	// with exact search exactly.
	s := randStore(50, 6, 113)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewExact(s, Cosine, 1)
	for row := 0; row < 50; row += 7 {
		got := h.SearchRow(row, 5)
		want := exact.SearchRow(row, 5)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d vs %d results", row, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d rank %d: %+v, want %+v", row, i, got[i], want[i])
			}
		}
	}
}

func TestHNSWGraphRoundTrip(t *testing.T) {
	s := clusteredStore(1500, 16, 10, 127)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 17, M: 8, EfConstruction: 60})
	if err != nil {
		t.Fatal(err)
	}
	g := h.Graph()
	h2, err := HNSWFromGraph(s, g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.M() != h.M() || h2.EfSearch() != h.EfSearch() || h2.MaxLevel() != h.MaxLevel() {
		t.Fatalf("round trip changed parameters: m %d->%d ef %d->%d maxLevel %d->%d",
			h.M(), h2.M(), h.EfSearch(), h2.EfSearch(), h.MaxLevel(), h2.MaxLevel())
	}
	rng := xrand.New(131)
	for trial := 0; trial < 20; trial++ {
		row := rng.Intn(s.Len())
		a, b := h.SearchRow(row, 10), h2.SearchRow(row, 10)
		if len(a) != len(b) {
			t.Fatalf("row %d: %d vs %d results", row, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d rank %d: %+v vs %+v after round trip", row, i, a[i], b[i])
			}
		}
	}
	// Override efSearch on rebind.
	h3, err := HNSWFromGraph(s, g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h3.EfSearch() != 10 {
		t.Fatalf("efSearch override ignored: %d", h3.EfSearch())
	}
}

func TestHNSWFromGraphRejectsCorruptTopology(t *testing.T) {
	s := randStore(20, 4, 137)
	h, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 19, M: 4, EfConstruction: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *HNSWGraph {
		g := h.Graph()
		friends := make([][][]int32, len(g.Friends))
		for i, fr := range g.Friends {
			friends[i] = make([][]int32, len(fr))
			for l, links := range fr {
				friends[i][l] = append([]int32(nil), links...)
			}
		}
		g.Friends = friends
		return g
	}
	cases := []struct {
		name   string
		mutate func(*HNSWGraph)
	}{
		{"wrong node count", func(g *HNSWGraph) { g.Friends = g.Friends[:10] }},
		{"entry out of range", func(g *HNSWGraph) { g.Entry = 99 }},
		{"negative entry", func(g *HNSWGraph) { g.Entry = -1 }},
		{"invalid M", func(g *HNSWGraph) { g.M = 0 }},
		{"link out of range", func(g *HNSWGraph) { g.Friends[0][0][0] = 42 }},
		{"negative link", func(g *HNSWGraph) { g.Friends[0][0][0] = -3 }},
	}
	for _, tc := range cases {
		g := fresh()
		tc.mutate(g)
		if _, err := HNSWFromGraph(s, g, 0, 0); err == nil {
			t.Errorf("%s: corrupt graph accepted", tc.name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"zero value", Config{}, false},
		{"exact dot", Config{Kind: KindExact, Metric: Dot}, false},
		{"exact with seed", Config{Kind: KindExact, Seed: 42}, false},
		{"ivf defaults", Config{Kind: KindIVF}, false},
		{"ivf tuned", Config{Kind: KindIVF, NLists: 100, NProbe: 10, KMeansIters: 5}, false},
		{"hnsw defaults", Config{Kind: KindHNSW}, false},
		{"hnsw tuned", Config{Kind: KindHNSW, Metric: Euclidean, M: 32, EfConstruction: 400, EfSearch: 256}, false},
		{"unknown kind", Config{Kind: Kind(9)}, true},
		{"unknown metric", Config{Metric: Metric(9)}, true},
		{"negative workers", Config{Workers: -1}, true},
		{"negative nlists", Config{Kind: KindIVF, NLists: -4}, true},
		{"negative nprobe", Config{Kind: KindIVF, NProbe: -1}, true},
		{"negative m", Config{Kind: KindHNSW, M: -16}, true},
		{"negative efsearch", Config{Kind: KindHNSW, EfSearch: -1}, true},
		{"nprobe above nlists", Config{Kind: KindIVF, NLists: 4, NProbe: 5}, true},
		{"nprobe without nlists ok", Config{Kind: KindIVF, NProbe: 7}, false},
		{"ivf params on exact", Config{Kind: KindExact, NProbe: 2}, true},
		{"ivf params on hnsw", Config{Kind: KindHNSW, NLists: 8}, true},
		{"hnsw params on exact", Config{Kind: KindExact, EfSearch: 64}, true},
		{"hnsw params on ivf", Config{Kind: KindIVF, M: 16}, true},
	}
	s := randStore(30, 4, 139)
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tc.name, err, tc.wantErr)
			continue
		}
		// Open must agree with Validate: never panic, never silently
		// reinterpret an invalid configuration.
		idx, openErr := Open(s, tc.cfg)
		if tc.wantErr {
			if openErr == nil {
				t.Errorf("%s: Open accepted an invalid config (%T)", tc.name, idx)
			}
		} else if openErr != nil {
			t.Errorf("%s: Open rejected a valid config: %v", tc.name, openErr)
		}
	}
}

// hnswPaths are the two float32 kernel paths graph routing runs on:
// the dispatching kernels (AVX2/FMA assembly where the CPU has it)
// and their scalar references.
var hnswPaths = []struct {
	name   string
	scalar bool
}{{"dispatch", false}, {"scalar", true}}

var hnswMetrics = []Metric{Cosine, Dot, Euclidean}

// requireExactScores fails unless res is sorted best first and every
// result carries the exact score of its row: scoreRow over s, bit for
// bit, whatever float32 distance routed the search to it.
func requireExactScores(t *testing.T, what string, s *Store, metric Metric, q []float32, res []Result) {
	t.Helper()
	qn := queryNorm(metric, q)
	for i, r := range res {
		if want := scoreRow(s, metric, q, qn, r.ID); r.Score != want {
			t.Fatalf("%s: rank %d row %d score %v, want exact %v", what, i, r.ID, r.Score, want)
		}
		if i > 0 && better(r, res[i-1]) {
			t.Fatalf("%s: rank %d %+v sorts before rank %d %+v", what, i, r, i-1, res[i-1])
		}
	}
}

// hnswQueries returns stored rows and perturbed copies of them.
func hnswQueries(s *Store, n int, seed uint64) ([][]float32, []int) {
	rng := xrand.New(seed)
	qs := make([][]float32, 0, 2*n)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(s.Len())
		q := append([]float32(nil), s.Row(rows[i])...)
		qs = append(qs, s.Row(rows[i]))
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.3)
		}
		qs = append(qs, q)
	}
	return qs, rows
}

// checkHNSWScores runs every query entry point of idx and requires
// exact scores and no tombstoned row in the results.
func checkHNSWScores(t *testing.T, s *Store, idx Index, seed uint64) {
	t.Helper()
	metric := idx.Metric()
	qs, rows := hnswQueries(s, 8, seed)
	noDead := func(what string, res []Result) {
		t.Helper()
		for _, r := range res {
			if s.Deleted(r.ID) {
				t.Fatalf("%s: tombstoned row %d returned", what, r.ID)
			}
		}
	}
	for _, q := range qs {
		res := idx.Search(q, 10)
		requireExactScores(t, "Search", s, metric, q, res)
		noDead("Search", res)
	}
	for _, row := range rows {
		if s.Deleted(row) {
			continue
		}
		res := idx.SearchRow(row, 10)
		requireExactScores(t, "SearchRow", s, metric, s.Row(row), res)
		noDead("SearchRow", res)
	}
	for i, res := range idx.SearchBatch(qs, 10) {
		requireExactScores(t, "SearchBatch", s, metric, qs[i], res)
		noDead("SearchBatch", res)
	}
}

// TestHNSWScoresMatchExactForReturnedIDs: whatever rows HNSW returns,
// their scores are the exact float64 metric scores, although routing
// runs on float32 kernels — on either kernel path, for every metric
// and query entry point, before and after online inserts and deletes.
func TestHNSWScoresMatchExactForReturnedIDs(t *testing.T) {
	for _, path := range hnswPaths {
		for _, metric := range hnswMetrics {
			t.Run(path.name+"/"+metric.String(), func(t *testing.T) {
				s := randStore(1200, 16, 151)
				h, err := NewHNSW(s, metric, HNSWConfig{Seed: 21, M: 8, EfConstruction: 60, scalarKernels: path.scalar})
				if err != nil {
					t.Fatal(err)
				}
				checkHNSWScores(t, s, h, 163)

				rng := xrand.New(167)
				for i := 0; i < 60; i++ {
					v := append([]float32(nil), s.Row(rng.Intn(s.Len()))...)
					for j := range v {
						v[j] += float32(rng.NormFloat64() * 0.2)
					}
					if _, err := h.Insert(v); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 120; i++ {
					if id := rng.Intn(s.Len()); !s.Deleted(id) {
						if err := h.Delete(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkHNSWScores(t, s, h, 173)
			})
		}
	}
}

// TestShardedHNSWExactScores: the per-shard HNSW graphs route on the
// kernels too, and the coordinator's merged results still carry exact
// scores.
func TestShardedHNSWExactScores(t *testing.T) {
	for _, metric := range hnswMetrics {
		t.Run(metric.String(), func(t *testing.T) {
			s := clusteredStore(1200, 16, 12, 179)
			sh, err := OpenSharded(s, Config{Kind: KindHNSW, Metric: metric, Shards: 3, M: 8, EfConstruction: 60, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			checkHNSWScores(t, s, sh, 181)
		})
	}
}

// TestHNSWRecallOnBothPaths holds the recall floor on each kernel
// path and metric.
func TestHNSWRecallOnBothPaths(t *testing.T) {
	s := clusteredStore(3000, 32, 30, 191)
	for _, path := range hnswPaths {
		for _, metric := range hnswMetrics {
			h, err := NewHNSW(s, metric, HNSWConfig{Seed: 23, scalarKernels: path.scalar})
			if err != nil {
				t.Fatal(err)
			}
			recall := recallVsExact(t, s, h, 10, 100, 193)
			t.Logf("%s/%v: recall@10 = %.4f", path.name, metric, recall)
			if recall < 0.95 {
				t.Errorf("%s/%v: recall@10 = %.4f, want >= 0.95", path.name, metric, recall)
			}
		}
	}
}

// TestHNSWBuildDeterministicPerPath: on one kernel path, two builds
// with the same seed produce the same graph.
func TestHNSWBuildDeterministicPerPath(t *testing.T) {
	s := clusteredStore(1500, 16, 15, 197)
	for _, path := range hnswPaths {
		for _, metric := range hnswMetrics {
			cfg := HNSWConfig{Seed: 29, M: 8, EfConstruction: 60, scalarKernels: path.scalar}
			a, err := NewHNSW(s, metric, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewHNSW(s, metric, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Graph(), b.Graph()) {
				t.Errorf("%s/%v: two builds with seed %d differ", path.name, metric, cfg.Seed)
			}
		}
	}
}

// TestHNSWGraphBindsAcrossKernelPaths: the graph format does not
// depend on the kernel path, so a graph built on one path binds
// through HNSWFromGraph and serves on the other with the recall floor
// and exact scores.
func TestHNSWGraphBindsAcrossKernelPaths(t *testing.T) {
	s := clusteredStore(3000, 32, 30, 199)
	for _, metric := range hnswMetrics {
		for _, path := range hnswPaths {
			built, err := NewHNSW(s, metric, HNSWConfig{Seed: 31, scalarKernels: path.scalar})
			if err != nil {
				t.Fatal(err)
			}
			bound, err := HNSWFromGraph(s, built.Graph(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if bound.scalar {
				t.Fatal("HNSWFromGraph bound to the scalar path")
			}
			// A rebound index serves on the dispatching kernels; flip a
			// dispatch-built graph to the scalar path by hand.
			bound.scalar = !path.scalar
			if recall := recallVsExact(t, s, bound, 10, 100, 211); recall < 0.95 {
				t.Errorf("%v built on %s, served on the other path: recall@10 = %.4f, want >= 0.95", metric, path.name, recall)
			}
			checkHNSWScores(t, s, bound, 223)
		}
	}
}
