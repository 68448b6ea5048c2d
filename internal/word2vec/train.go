package word2vec

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"v2v/internal/f32"
	"v2v/internal/vecstore"
	"v2v/internal/xrand"
)

// Stats reports what happened during training.
type Stats struct {
	Epochs        int           // epochs actually run
	TokensTrained int64         // centre-token updates performed
	EpochLosses   []float64     // mean per-sample loss of each epoch
	FinalLoss     float64       // last entry of EpochLosses
	Converged     bool          // true when convergence stopping fired
	Duration      time.Duration // wall-clock training time
}

// Train learns embeddings for a vocabulary of vocab vertices from the
// given corpus. See Config for the hyper-parameters; the paper's V2V
// uses CBOW with window 5.
func Train(corpus Corpus, vocab int, cfg Config) (*Model, *Stats, error) {
	return trainSource(corpusSource{corpus}, vocab, cfg)
}

// TrainStreaming learns embeddings from a streaming corpus without
// ever materializing it: each worker consumes its walk shard through
// WalkSeq, so corpus memory is bounded by the source's buffers instead
// of the total token count. With the same seed and Workers = 1 the
// result is bit-identical to Train on the materialized equivalent —
// the two entry points share the training loop and differ only in
// where walks come from.
func TrainStreaming(corpus StreamingCorpus, vocab int, cfg Config) (*Model, *Stats, error) {
	return trainSource(corpus, vocab, cfg)
}

// trainSource is the shared implementation behind Train and
// TrainStreaming.
func trainSource(src StreamingCorpus, vocab int, cfg Config) (*Model, *Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if vocab <= 0 {
		return nil, nil, fmt.Errorf("word2vec: vocab must be positive, got %d", vocab)
	}
	if src.NumWalks() == 0 || src.NumTokens() == 0 {
		return nil, nil, fmt.Errorf("word2vec: empty corpus")
	}

	tr, err := newTrainer(src, vocab, cfg)
	if err != nil {
		return nil, nil, err
	}
	return tr.run()
}

// corpusSource adapts a materialized Corpus to the StreamingCorpus
// contract so the trainer has a single walk-consumption path.
type corpusSource struct{ c Corpus }

func (s corpusSource) NumWalks() int  { return s.c.NumWalks() }
func (s corpusSource) NumTokens() int { return s.c.NumTokens() }

func (s corpusSource) Counts(vocab int) ([]int, error) {
	counts := make([]int, vocab)
	for i := 0; i < s.c.NumWalks(); i++ {
		for _, tok := range s.c.Walk(i) {
			if int(tok) < 0 || int(tok) >= vocab {
				return nil, fmt.Errorf("word2vec: token %d out of vocab [0,%d)", tok, vocab)
			}
			counts[tok]++
		}
	}
	return counts, nil
}

func (s corpusSource) WalkSeq(lo, hi int) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		for i := lo; i < hi; i++ {
			if !yield(s.c.Walk(i)) {
				return
			}
		}
	}
}

type trainer struct {
	corpus StreamingCorpus
	vocab  int
	cfg    Config

	counts      []int
	totalTokens int64

	syn0 []float32 // input vectors (the embeddings), vocab x dim
	syn1 []float32 // output vectors: NS: vocab x dim; HS: (vocab-1) x dim

	unigram *aliasSampler // negative sampling distribution (counts^0.75)
	tree    *huffman      // hierarchical softmax coding

	processed atomic.Int64 // tokens consumed so far (drives LR decay)
	budget    int64        // tokens expected over all (cap) epochs
}

func newTrainer(corpus StreamingCorpus, vocab int, cfg Config) (*trainer, error) {
	tr := &trainer{corpus: corpus, vocab: vocab, cfg: cfg}

	counts, err := corpus.Counts(vocab)
	if err != nil {
		return nil, err
	}
	tr.counts = counts
	tr.totalTokens = int64(corpus.NumTokens())
	tr.budget = tr.totalTokens * int64(cfg.Epochs)

	dim := cfg.Dim
	// Aligned weight matrices: syn0 becomes the model's vector store
	// after training, syn1 just shares the hot-loop cache behavior.
	tr.syn0 = vecstore.AlignedSlice(vocab * dim)
	rng := xrand.New(cfg.Seed ^ 0x5eedf00d)
	for i := range tr.syn0 {
		tr.syn0[i] = (rng.Float32() - 0.5) / float32(dim)
	}
	switch cfg.Sampler {
	case NegativeSampling:
		tr.syn1 = vecstore.AlignedSlice(vocab * dim)
		tr.unigram = newAliasSampler(tr.counts, 0.75)
	case HierarchicalSoftmax:
		inner := vocab - 1
		if inner < 1 {
			inner = 1
		}
		tr.syn1 = vecstore.AlignedSlice(inner * dim)
		tr.tree = buildHuffman(tr.counts)
	}
	return tr, nil
}

func (tr *trainer) run() (*Model, *Stats, error) {
	start := time.Now()
	stats := &Stats{}
	prevLoss := math.Inf(1)
	for epoch := 0; epoch < tr.cfg.Epochs; epoch++ {
		loss, samples := tr.runEpoch(epoch)
		meanLoss := 0.0
		if samples > 0 {
			meanLoss = loss / float64(samples)
		}
		stats.EpochLosses = append(stats.EpochLosses, meanLoss)
		stats.Epochs = epoch + 1
		if tr.cfg.ConvergenceTol > 0 && epoch > 0 {
			if prevLoss-meanLoss < tr.cfg.ConvergenceTol*math.Abs(prevLoss) {
				stats.Converged = true
				prevLoss = meanLoss
				break
			}
		}
		prevLoss = meanLoss
	}
	stats.FinalLoss = prevLoss
	if len(stats.EpochLosses) > 0 {
		stats.FinalLoss = stats.EpochLosses[len(stats.EpochLosses)-1]
	}
	stats.TokensTrained = tr.processed.Load()
	stats.Duration = time.Since(start)

	m := &Model{Dim: tr.cfg.Dim, Vocab: tr.vocab, Vectors: tr.syn0}
	return m, stats, nil
}

// runEpoch processes every walk once, sharded over the worker pool,
// and returns the summed loss and sample count.
func (tr *trainer) runEpoch(epoch int) (float64, int64) {
	workers := tr.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if raceEnabled {
		workers = 1 // Hogwild updates are intentional races; see race_off.go
	}
	numWalks := tr.corpus.NumWalks()
	if workers > numWalks {
		workers = numWalks
	}

	losses := make([]float64, workers)
	samples := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * numWalks / workers
		hi := (w + 1) * numWalks / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			losses[w], samples[w] = tr.work(epoch, w, workers, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()

	var loss float64
	var n int64
	for w := 0; w < workers; w++ {
		loss += losses[w]
		n += samples[w]
	}
	return loss, n
}

// work trains on walks [lo, hi), consumed through the corpus walk
// iterator (a slice view for materialized corpora, a bounded-buffer
// producer for streaming ones). It is the hot loop; shared syn0/syn1
// are updated without synchronisation (Hogwild).
func (tr *trainer) work(epoch, worker, workers, lo, hi int) (loss float64, samples int64) {
	cfg := tr.cfg
	dim := cfg.Dim
	rng := xrand.NewStream(cfg.Seed, uint64(epoch)*uint64(workers+1)+uint64(worker)+1)

	neu1 := make([]float32, dim)  // CBOW hidden activation
	neu1e := make([]float32, dim) // accumulated gradient for inputs
	sen := make([]int32, 0, 1024) // subsampled sentence buffer

	alpha := tr.currentAlpha()
	var sinceAlpha int64

	for walk := range tr.corpus.WalkSeq(lo, hi) {
		sen = sen[:0]
		if cfg.Subsample > 0 {
			for _, tok := range walk {
				if tr.keepToken(int(tok), rng) {
					sen = append(sen, tok)
				}
			}
		} else {
			sen = append(sen, walk...)
		}

		for pos := 0; pos < len(sen); pos++ {
			w := int(sen[pos])
			// Reduced window, as in the reference implementation:
			// the effective radius is uniform in [1, Window].
			b := rng.Intn(cfg.Window)
			lo2 := pos - cfg.Window + b
			hi2 := pos + cfg.Window - b
			if lo2 < 0 {
				lo2 = 0
			}
			if hi2 >= len(sen) {
				hi2 = len(sen) - 1
			}

			switch cfg.Objective {
			case CBOW:
				loss += tr.cbowUpdate(sen, pos, w, lo2, hi2, alpha, rng, neu1, neu1e)
			case SkipGram:
				loss += tr.skipGramUpdate(sen, pos, w, lo2, hi2, alpha, rng, neu1e)
			}
			samples++
			sinceAlpha++
			if sinceAlpha >= 10000 {
				tr.processed.Add(sinceAlpha)
				sinceAlpha = 0
				alpha = tr.currentAlpha()
			}
		}
	}
	tr.processed.Add(sinceAlpha)
	return loss, samples
}

// currentAlpha returns the linearly decayed learning rate.
func (tr *trainer) currentAlpha() float32 {
	frac := float64(tr.processed.Load()) / float64(tr.budget+1)
	a := tr.cfg.LearningRate * (1 - frac)
	if a < tr.cfg.MinLearningRate {
		a = tr.cfg.MinLearningRate
	}
	return float32(a)
}

// keepToken applies word2vec subsampling: frequent vertices are
// randomly dropped with probability depending on their corpus share.
func (tr *trainer) keepToken(tok int, rng *xrand.RNG) bool {
	cn := float64(tr.counts[tok])
	if cn == 0 {
		return true
	}
	st := tr.cfg.Subsample * float64(tr.totalTokens)
	ran := (math.Sqrt(cn/st) + 1) * st / cn
	return ran >= rng.Float64()
}

// cbowUpdate performs one CBOW step for centre w with context
// sen[lo..hi] excluding pos, returning the sample's loss.
func (tr *trainer) cbowUpdate(sen []int32, pos, w, lo, hi int, alpha float32, rng *xrand.RNG, neu1, neu1e []float32) float64 {
	dim := tr.cfg.Dim
	for i := range neu1 {
		neu1[i] = 0
		neu1e[i] = 0
	}
	cw := 0
	for p := lo; p <= hi; p++ {
		if p == pos {
			continue
		}
		c := int(sen[p])
		tr.add(neu1, tr.syn0[c*dim:c*dim+dim])
		cw++
	}
	if cw == 0 {
		return 0
	}
	inv := 1 / float32(cw)
	for i := range neu1 {
		neu1[i] *= inv
	}

	loss := tr.outputUpdate(w, neu1, neu1e, alpha, rng)

	for p := lo; p <= hi; p++ {
		if p == pos {
			continue
		}
		c := int(sen[p])
		tr.add(tr.syn0[c*dim:c*dim+dim], neu1e)
	}
	return loss
}

// skipGramUpdate performs one SkipGram step: each context vertex
// predicts the centre w.
func (tr *trainer) skipGramUpdate(sen []int32, pos, w, lo, hi int, alpha float32, rng *xrand.RNG, neu1e []float32) float64 {
	dim := tr.cfg.Dim
	var loss float64
	for p := lo; p <= hi; p++ {
		if p == pos {
			continue
		}
		c := int(sen[p])
		h := tr.syn0[c*dim : c*dim+dim]
		for i := range neu1e {
			neu1e[i] = 0
		}
		loss += tr.outputUpdate(w, h, neu1e, alpha, rng)
		tr.add(h, neu1e)
	}
	return loss
}

// outputUpdate applies the output-layer update (negative sampling or
// hierarchical softmax) for centre word w with hidden activation h,
// accumulating the input gradient into neu1e, and returns the loss.
func (tr *trainer) outputUpdate(w int, h, neu1e []float32, alpha float32, rng *xrand.RNG) float64 {
	dim := tr.cfg.Dim
	var loss float64
	switch tr.cfg.Sampler {
	case NegativeSampling:
		for d := 0; d <= tr.cfg.NegativeSamples; d++ {
			var target int
			var label float32
			if d == 0 {
				target, label = w, 1
			} else {
				target = tr.unigram.sample(rng)
				if target == w {
					continue
				}
				label = 0
			}
			out := tr.syn1[target*dim : target*dim+dim]
			f := tr.dot(h, out)
			s := sigmoid(f)
			g := (label - s) * alpha
			tr.update(neu1e, out, h, g)
			if label == 1 {
				loss += -logSigmoid(float64(f))
			} else {
				loss += -logSigmoid(-float64(f))
			}
		}
	case HierarchicalSoftmax:
		codes := tr.tree.codes[w]
		points := tr.tree.points[w]
		for d := range codes {
			node := points[d]
			out := tr.syn1[node*dim : node*dim+dim]
			f := tr.dot(h, out)
			s := sigmoid(f)
			g := (1 - float32(codes[d]) - s) * alpha
			tr.update(neu1e, out, h, g)
			// P(code=0) = sigma(f): loss is -log of the branch prob.
			if codes[d] == 0 {
				loss += -logSigmoid(float64(f))
			} else {
				loss += -logSigmoid(-float64(f))
			}
		}
	}
	return loss
}

// dot, add and update are the per-element loops of the update steps,
// run on the f32 kernels (AVX2/FMA assembly where the CPU has it);
// Config.scalarKernels pins them to the scalar references.
func (tr *trainer) dot(a, b []float32) float32 {
	if tr.cfg.scalarKernels {
		return f32.DotScalar(a, b)
	}
	return f32.Dot(a, b)
}

func (tr *trainer) add(dst, src []float32) {
	if tr.cfg.scalarKernels {
		f32.AddScalar(dst, src)
		return
	}
	f32.Add(dst, src)
}

// update applies acc += g·out; out += g·h, reading out before it is
// written.
func (tr *trainer) update(acc, out, h []float32, g float32) {
	if tr.cfg.scalarKernels {
		f32.UpdateScalar(acc, out, h, g)
		return
	}
	f32.Update(acc, out, h, g)
}

// aliasSampler draws vertices from the counts^power distribution in
// O(1), replacing the reference implementation's 100M-entry table.
type aliasSampler struct {
	prob  []float64
	alias []int
}

func newAliasSampler(counts []int, power float64) *aliasSampler {
	n := len(counts)
	weights := make([]float64, n)
	var total float64
	for i, c := range counts {
		if c <= 0 {
			c = 1 // smooth so every vertex can be a negative
		}
		weights[i] = math.Pow(float64(c), power)
		total += weights[i]
	}
	s := &aliasSampler{prob: make([]float64, n), alias: make([]int, n)}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		sm := small[len(small)-1]
		small = small[:len(small)-1]
		lg := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[sm] = scaled[sm]
		s.alias[sm] = lg
		scaled[lg] -= 1 - scaled[sm]
		if scaled[lg] < 1 {
			small = append(small, lg)
		} else {
			large = append(large, lg)
		}
	}
	for _, i := range large {
		s.prob[i], s.alias[i] = 1, i
	}
	for _, i := range small {
		s.prob[i], s.alias[i] = 1, i
	}
	return s
}

func (s *aliasSampler) sample(rng *xrand.RNG) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
