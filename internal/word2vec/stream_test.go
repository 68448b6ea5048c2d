package word2vec

import (
	"iter"
	"testing"

	"v2v/internal/graph"
	"v2v/internal/walk"
)

// streamFromTestCorpus adapts a testCorpus to StreamingCorpus so the
// trainer's streaming entry point can be exercised without graphs.
type streamFromTestCorpus struct{ c *testCorpus }

func (s streamFromTestCorpus) NumWalks() int  { return s.c.NumWalks() }
func (s streamFromTestCorpus) NumTokens() int { return s.c.NumTokens() }
func (s streamFromTestCorpus) Counts(vocab int) ([]int, error) {
	return corpusSource{s.c}.Counts(vocab)
}
func (s streamFromTestCorpus) WalkSeq(lo, hi int) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		for i := lo; i < hi; i++ {
			// Yield through a copy buffer to enforce the contract that
			// consumers must not retain yielded slices.
			buf := append([]int32(nil), s.c.walks[i]...)
			if !yield(buf) {
				return
			}
		}
	}
}

// TestTrainStreamingMatchesTrain: with Workers = 1 the streaming entry
// point must produce exactly the vectors of the materialized one, on
// either kernel path.
func TestTrainStreamingMatchesTrain(t *testing.T) {
	corpus, g, _ := benchCorpus(t, 0.6, 3, 12)
	forEachKernelPath(t, func(t *testing.T, scalar bool) {
		testTrainStreamingMatchesTrain(t, corpus, g, scalar)
	})
}

func testTrainStreamingMatchesTrain(t *testing.T, corpus *walk.Corpus, g *graph.Graph, scalar bool) {
	for _, sampler := range []Sampler{NegativeSampling, HierarchicalSoftmax} {
		for _, obj := range []Objective{CBOW, SkipGram} {
			cfg := DefaultConfig(12)
			cfg.Sampler = sampler
			cfg.Objective = obj
			cfg.Epochs = 2
			cfg.Workers = 1
			cfg.Seed = 21
			cfg.Subsample = 1e-2
			cfg.scalarKernels = scalar

			want, wantStats, err := Train(corpus, g.NumVertices(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := walk.NewStream(g, walk.Config{WalksPerVertex: 8, Length: 40, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := TrainStreaming(gen, g.NumVertices(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Vectors {
				if got.Vectors[i] != want.Vectors[i] {
					t.Fatalf("%v/%v: vector[%d] = %g, want %g", sampler, obj, i, got.Vectors[i], want.Vectors[i])
				}
			}
			if gotStats.TokensTrained != wantStats.TokensTrained {
				t.Fatalf("%v/%v: TokensTrained = %d, want %d", sampler, obj, gotStats.TokensTrained, wantStats.TokensTrained)
			}
		}
	}
}

// TestTrainStreamingRejectsBadInput mirrors TestTrainRejectsBadInput
// for the streaming entry point.
func TestTrainStreamingRejectsBadInput(t *testing.T) {
	empty := streamFromTestCorpus{&testCorpus{}}
	if _, _, err := TrainStreaming(empty, 3, DefaultConfig(8)); err == nil {
		t.Error("empty streaming corpus accepted")
	}
	outOfVocab := streamFromTestCorpus{&testCorpus{walks: [][]int32{{0, 7}}}}
	if _, _, err := TrainStreaming(outOfVocab, 3, DefaultConfig(8)); err == nil {
		t.Error("out-of-vocab token accepted")
	}
}

// TestTrainStreamingAdapterEquivalence: any StreamingCorpus that
// yields the same walks trains the same model, buffer reuse included.
func TestTrainStreamingAdapterEquivalence(t *testing.T) {
	c := &testCorpus{walks: [][]int32{
		{0, 1, 2, 3, 0, 1}, {3, 2, 1, 0}, {1, 1, 2, 2, 3, 3, 0, 0}, {2, 0, 3, 1},
	}}
	cfg := DefaultConfig(8)
	cfg.Workers = 1
	cfg.Seed = 5
	cfg.Epochs = 3
	want, _, err := Train(c, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := TrainStreaming(streamFromTestCorpus{c}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Vectors {
		if got.Vectors[i] != want.Vectors[i] {
			t.Fatalf("vector[%d] = %g, want %g", i, got.Vectors[i], want.Vectors[i])
		}
	}
}

var _ StreamingCorpus = (*walk.Stream)(nil)
