package main

import (
	"fmt"
	"runtime"
	"time"

	"v2v"
)

// The pipeline workload is the paper's Section III experiment: the
// 10 x 100 community benchmark graph at alpha = 0.5 (200
// inter-community edges), uniform random walks, CBOW (dim 100, window
// 5, 5 negatives, 3 epochs, one worker per CPU), k-means with K = 10
// and 100 restarts on the embedding (Embedding.DetectCommunities),
// then pairwise F1 against the planted communities. The walk budget
// is sized so one repetition takes a few seconds on a 2-CPU machine
// and a run holds several.
const (
	pipelineAlpha          = 0.5
	pipelineDim            = 100
	pipelineWalksPerVertex = 5
	pipelineWalkLength     = 100
	pipelineK              = 10
	pipelineRestarts       = 100

	// graphSetupReps graph builds make up the set-up figure (their
	// median); a build takes milliseconds.
	graphSetupReps = 51
	// minPipelineReps is the fewest repetitions a run makes, however
	// short -seconds is.
	minPipelineReps = 3

	// communityF1Floor fails the run: at this walk budget the planted
	// communities are recovered with F1 near 1.
	communityF1Floor = 0.9
)

// pipelineRep is one timed walk -> train -> cluster repetition.
type pipelineRep struct {
	walk, train, cluster, total time.Duration
	f1                          float64
	tokens                      int
	trained                     int64
	finalLoss                   float64
}

func runPipeline(r *run) error {
	var (
		g     *v2v.Graph
		truth []int
	)
	genMs := make([]float64, graphSetupReps)
	for i := range genMs {
		runtime.GC()
		t := time.Now()
		g, truth = v2v.CommunityBenchmark(v2v.DefaultBenchmarkConfig(pipelineAlpha, r.seed))
		genMs[i] = ms(time.Since(t))
	}
	r.set("setup_s", median(genMs)/1000)
	r.set("graph.gen_ms", median(genMs))
	r.note("graph", map[string]int{"vertices": g.NumVertices(), "edges": g.NumEdges()})

	opts := v2v.DefaultOptions(pipelineDim)
	opts.WalksPerVertex = pipelineWalksPerVertex
	opts.WalkLength = pipelineWalkLength
	opts.Workers = procs()
	opts.Seed = r.seed
	ccfg := v2v.CommunityConfig{K: pipelineK, Restarts: pipelineRestarts, Seed: r.seed, Workers: procs()}

	var tr *tracer
	if r.traced {
		tr = newTracer()
	}
	// rep runs the pipeline once; traced repetitions record a span
	// around each call into a layer.
	rep := func(i int, traced bool) (pipelineRep, error) {
		runtime.GC()
		t0 := time.Now()
		corpus, err := v2v.GenerateWalks(g, opts)
		if err != nil {
			return pipelineRep{}, fmt.Errorf("walks: %w", err)
		}
		t1 := time.Now()
		emb, err := v2v.EmbedWalks(g, corpus, opts)
		if err != nil {
			return pipelineRep{}, fmt.Errorf("train: %w", err)
		}
		t2 := time.Now()
		comm, err := emb.DetectCommunities(ccfg)
		if err != nil {
			return pipelineRep{}, fmt.Errorf("cluster: %w", err)
		}
		t3 := time.Now()
		if traced {
			id := fmt.Sprintf("pipeline/%d", i)
			root := tr.add(id, "pipeline", 0, t0, t3)
			tr.add(id, "walk.GenerateWalks", root, t0, t1)
			tr.add(id, "word2vec.EmbedWalks", root, t1, t2)
			tr.add(id, "cluster.DetectCommunities", root, t2, t3)
		}
		f1, err := v2v.PairwiseF1(truth, comm.Partition)
		if err != nil {
			return pipelineRep{}, fmt.Errorf("score: %w", err)
		}
		return pipelineRep{
			walk: t1.Sub(t0), train: t2.Sub(t1), cluster: t3.Sub(t2), total: t3.Sub(t0),
			f1: f1, tokens: corpus.NumTokens(), trained: emb.Stats.TokensTrained, finalLoss: emb.Stats.FinalLoss,
		}, nil
	}

	// An untraced run repeats the pipeline for the measurement time. A
	// traced run alternates untraced and traced repetitions, so the two
	// sets see the same machine and the difference is the tracing
	// overhead.
	var (
		plain, traced []pipelineRep
		f1s           []float64
	)
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; len(plain)+len(traced) < minPipelineReps || time.Now().Before(deadline); i++ {
		withSpans := r.traced && i%2 == 1
		p, err := rep(i, withSpans)
		if err != nil {
			return err
		}
		r.attempted++
		f1s = append(f1s, p.f1)
		ok := p.f1 >= communityF1Floor
		if !ok {
			r.failed++
		}
		r.expect(fmt.Sprintf("community_f1/rep%d", i), ok, "pairwise F1 %.4f (floor %.2f)", p.f1, communityF1Floor)
		if withSpans {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	totals := func(reps []pipelineRep) []float64 {
		out := make([]float64, len(reps))
		for i, p := range reps {
			out[i] = p.total.Seconds()
		}
		return out
	}
	r.note("repetitions", map[string]int{"untraced": len(plain), "traced": len(traced)})
	r.note("repetition_s_samples", totals(plain))
	var layerMs []map[string]float64
	for _, p := range append(plain, traced...) {
		layerMs = append(layerMs, map[string]float64{"walk": ms(p.walk), "train": ms(p.train), "cluster": ms(p.cluster)})
	}
	r.note("repetition_layer_ms", layerMs)
	r.note("community_f1_samples", f1s)
	// A run's latency is that of its untraced repetitions; with at most
	// a hundred of them, the p99 is the slowest.
	r.set("latency_p50_ms", median(totals(plain))*1000)
	r.set("latency_p99_ms", percentile(totals(plain), 0.99)*1000)
	r.set("quality", median(f1s))
	r.set("success_ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	if !r.traced {
		return nil
	}

	// The breakdown uses means over the traced repetitions. The three
	// layer spans tile a repetition, so their means add up to the mean
	// total with no remainder.
	var walk, train, clust, total, tokPerS, trainPerS, loss []float64
	for _, p := range traced {
		walk = append(walk, ms(p.walk))
		train = append(train, ms(p.train))
		clust = append(clust, ms(p.cluster))
		total = append(total, ms(p.total))
		tokPerS = append(tokPerS, float64(p.tokens)/p.walk.Seconds())
		trainPerS = append(trainPerS, float64(p.trained)/p.train.Seconds())
		loss = append(loss, p.finalLoss)
	}
	r.set("walk.gen_ms", mean(walk))
	r.set("walk.tokens", float64(traced[0].tokens))
	r.set("walk.tokens_per_s", mean(tokPerS))
	r.set("word2vec.train_ms", mean(train))
	r.set("word2vec.tokens_per_s", mean(trainPerS))
	r.set("word2vec.final_loss", mean(loss))
	r.set("cluster.kmeans_ms", mean(clust))
	plainMs := mean(totals(plain)) * 1000
	r.set("trace.overhead_pct", (mean(total)-plainMs)/plainMs*100)
	r.note("breakdown_ms", map[string]float64{
		"pipeline_mean": mean(total), "walk": mean(walk), "word2vec": mean(train), "cluster": mean(clust),
	})
	r.spans = tr.spans
	return nil
}
