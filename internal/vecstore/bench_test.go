package vecstore

import (
	"math"
	"sort"
	"sync"
	"testing"

	"v2v/internal/xrand"
)

// The acceptance benchmark pair: batched cosine top-10 over a
// 100k x 128 store versus the seed's per-query path (allocate a
// result per row, sort all of them). -short scales the store down for
// CI.
var queryBench struct {
	once sync.Once
	s    *Store
	qs   [][]float32
}

func queryBenchSetup(b *testing.B) (*Store, [][]float32) {
	b.Helper()
	queryBench.once.Do(func() {
		n, dim := 100_000, 128
		if testing.Short() {
			n, dim = 10_000, 64
		}
		queryBench.s = randStore(n, dim, 101)
		rng := xrand.New(103)
		qs := make([][]float32, 64)
		for i := range qs {
			qs[i] = queryBench.s.Row(rng.Intn(n))
		}
		queryBench.qs = qs
	})
	return queryBench.s, queryBench.qs
}

// seedNeighbor mirrors the seed's word2vec.Neighbor/MostSimilar
// shape: one allocation-heavy full sort per query.
type seedNeighbor struct {
	Word       int
	Similarity float64
}

func seedMostSimilar(s *Store, q []float32, k int) []seedNeighbor {
	res := make([]seedNeighbor, 0, s.Len())
	qn := sqNorm(q)
	for u := 0; u < s.Len(); u++ {
		row := s.Row(u)
		var dot, rn float64
		for i := range row {
			dot += float64(q[i]) * float64(row[i])
			rn += float64(row[i]) * float64(row[i])
		}
		sim := 0.0
		if qn != 0 && rn != 0 {
			sim = dot / math.Sqrt(qn*rn)
		}
		res = append(res, seedNeighbor{Word: u, Similarity: sim})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Similarity != res[j].Similarity {
			return res[i].Similarity > res[j].Similarity
		}
		return res[i].Word < res[j].Word
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// BenchmarkSearchSeedBaseline is the pre-vecstore query path: per-row
// float64 norm recomputation, an n-element result slice and a full
// sort, once per query.
func BenchmarkSearchSeedBaseline(b *testing.B) {
	s, qs := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedMostSimilar(s, qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchExactSerial is one exact cosine top-10 per op on a
// single worker: cached norms, blocked kernels, bounded top-k heap.
func BenchmarkSearchExactSerial(b *testing.B) {
	s, qs := queryBenchSetup(b)
	idx := NewExact(s, Cosine, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchExactParallel adds the partitioned parallel scan.
func BenchmarkSearchExactParallel(b *testing.B) {
	s, qs := queryBenchSetup(b)
	idx := NewExact(s, Cosine, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchExactBatch is the batched fast path: 64 queries per
// op sharded across workers with reused heaps and a single result
// allocation, so allocations per query are amortized to ~0.
// Compare ns/query against BenchmarkSearchSeedBaseline's ns/op (the
// acceptance bar is >= 3x).
func BenchmarkSearchExactBatch(b *testing.B) {
	s, qs := queryBenchSetup(b)
	idx := NewExact(s, Cosine, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchBatch(qs, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}

// hnswBench caches a clustered (embedding-like) store of the same
// shape as the gaussian query-bench store, plus the HNSW index over
// it: the 100k x 128 build takes minutes and must not repeat per
// benchmark. The distribution matters for a proximity graph — trained
// embeddings are clustered, and that is the workload the serving
// stack sees; `cmd/hnswrecall -dist gaussian` tracks the structureless
// worst case (see docs/INDEXES.md for both numbers).
var hnswBench struct {
	once sync.Once
	s    *Store
	qs   [][]float32
	idx  *HNSW
}

func hnswBenchSetup(b *testing.B) (*HNSW, [][]float32) {
	b.Helper()
	hnswBench.once.Do(func() {
		n, dim, clusters := 100_000, 128, 1000
		if testing.Short() {
			n, dim, clusters = 10_000, 64, 100
		}
		hnswBench.s = clusteredStore(n, dim, clusters, 101)
		rng := xrand.New(103)
		qs := make([][]float32, 64)
		for i := range qs {
			qs[i] = hnswBench.s.Row(rng.Intn(n))
		}
		hnswBench.qs = qs
		h, err := NewHNSW(hnswBench.s, Cosine, HNSWConfig{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		hnswBench.idx = h
	})
	return hnswBench.idx, hnswBench.qs
}

// BenchmarkSearchHNSW is the sublinear approximate path at M/efSearch
// defaults: one cosine top-10 per op. The recall@10 metric compares
// the bench queries' answers against the exact index, so the
// trajectory snapshot records quality next to latency. Compare ns/op
// against BenchmarkSearchExactSerial (same shape, same kernels; a
// dense scan's cost does not depend on the distribution).
func BenchmarkSearchHNSW(b *testing.B) {
	h, qs := hnswBenchSetup(b)
	exact := NewExact(h.Store(), Cosine, 1)
	hits, total := 0, 0
	for _, q := range qs {
		in := map[int]bool{}
		for _, r := range h.Search(q, 10) {
			in[r.ID] = true
		}
		for _, r := range exact.Search(q, 10) {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Search(qs[i%len(qs)], 10)
	}
	b.ReportMetric(float64(hits)/float64(total), "recall@10")
}

// BenchmarkSearchHNSWBatch is the batched path: 64 queries per op
// sharded across workers with per-worker scratch.
func BenchmarkSearchHNSWBatch(b *testing.B) {
	h, qs := hnswBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SearchBatch(qs, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}

// BenchmarkBuildHNSW is the index-build layer of the serve-read
// benchmark: a cosine graph at defaults over a 10k x 64 clustered
// store (2k rows under -short), routed on the dispatching f32 kernels
// and on their scalar references.
func BenchmarkBuildHNSW(b *testing.B) {
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	s := clusteredStore(n, 64, 100, 101)
	for _, scalar := range []bool{false, true} {
		path := "dispatch"
		if scalar {
			path = "scalar"
		}
		b.Run(path, func(b *testing.B) {
			for b.Loop() {
				if _, err := NewHNSW(s, Cosine, HNSWConfig{Seed: 7, scalarKernels: scalar}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchIVF is the approximate path at nprobe defaults.
func BenchmarkSearchIVF(b *testing.B) {
	s, qs := queryBenchSetup(b)
	ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivf.Search(qs[i%len(qs)], 10)
	}
}

// BenchmarkSearchIVFBatch is the approximate batched path.
func BenchmarkSearchIVFBatch(b *testing.B) {
	s, qs := queryBenchSetup(b)
	ivf, err := NewIVF(s, Cosine, IVFConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivf.SearchBatch(qs, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
