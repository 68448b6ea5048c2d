package main

import (
	"fmt"
	"slices"
)

// metricSpec is one entry of the benchmark's metric catalog. The
// catalog is the single list BENCHMARK.json is checked against (see
// TestCatalogMatchesBenchmarkJSON): a run reports every name it
// declares for its kind of run, with the unit it declares, and no
// other.
type metricSpec struct {
	name string
	unit string
	e2e  bool // end-to-end (untraced runs) or per-layer (traced runs)
	// on lists the workloads whose paths run the layer; nil means
	// every workload. Every end-to-end metric is measured on every
	// workload. A traced run reports a layer that its workload does
	// not run as 0.
	on []string
}

// runsOn reports whether the metric is measured on the workload.
func (m metricSpec) runsOn(workload string) bool {
	return m.on == nil || slices.Contains(m.on, workload)
}

var (
	onPipeline = []string{"pipeline"}
	onServing  = []string{"serve-read", "serve-mixed"}
	onHNSW     = []string{"serve-read"}
	onWAL      = []string{"serve-mixed"}
)

// serverStages are the v2v_stage_seconds series the traced serving
// runs subtract. shard_wait and merge are detail stages: they overlap
// index_search and are reported but never summed (see tracedServe).
var serverStages = []string{
	"queue_wait", "parse", "gen_acquire", "cache_lookup", "index_search",
	"shard_wait", "merge", "wal_append", "wal_fsync", "apply", "encode", "write",
}

// detailStage reports whether a stage's spans nest inside another
// stage's wall time.
func detailStage(stage string) bool { return stage == "shard_wait" || stage == "merge" }

var catalog = buildCatalog()

func buildCatalog() []metricSpec {
	specs := []metricSpec{
		{"setup_s", "s", true, nil},
		{"latency_p50_ms", "ms", true, nil},
		{"latency_p99_ms", "ms", true, nil},
		{"quality", "ratio", true, nil},
		{"success_ratio", "ratio", true, nil},
		{"peak_rss_mb", "MB", true, nil},

		{"env.calibration_ms", "ms", false, nil},
		{"trace.overhead_pct", "%", false, nil},
		{"graph.gen_ms", "ms", false, onPipeline},
		{"walk.gen_ms", "ms", false, onPipeline},
		{"walk.tokens", "count", false, onPipeline},
		{"walk.tokens_per_s", "1/s", false, onPipeline},
		{"word2vec.train_ms", "ms", false, onPipeline},
		{"word2vec.tokens_per_s", "1/s", false, onPipeline},
		{"word2vec.final_loss", "loss", false, onPipeline},
		{"cluster.kmeans_ms", "ms", false, onPipeline},
		{"vecstore.build_ms", "ms", false, onHNSW},
		{"snapshot.save_ms", "ms", false, onServing},
		{"snapshot.load_ms", "ms", false, onServing},
		{"vecstore.search_us_p50", "us", false, onServing},
		{"vecstore.search_us_p99", "us", false, onServing},
		{"loadgen.latency_mean_ms", "ms", false, onServing},
		{"loadgen.lag_mean_ms", "ms", false, onServing},
		{"loadgen.lag_p50_ms", "ms", false, onServing},
		{"loadgen.lag_p99_ms", "ms", false, onServing},
		{"loadgen.sent", "count", false, onServing},
		{"server.request_ms", "ms", false, onServing},
		{"server.unstaged_ms", "ms", false, onServing},
		{"server.unattributed_ms", "ms", false, onServing},
		{"server.shed", "count", false, onServing},
		{"server.expired", "count", false, onServing},
		{"server.compactions", "count", false, onServing},
		{"server.cache_hit_ratio", "ratio", false, onServing},
		{"server.cache_hits", "count", false, onServing},
		{"server.cache_misses", "count", false, onServing},
		{"wal.fsyncs", "count", false, onWAL},
		{"wal.writes_per_fsync", "ratio", false, onWAL},
		{"wal.bytes_per_write", "B", false, onWAL},
	}
	for _, st := range serverStages {
		specs = append(specs,
			metricSpec{"server." + st + "_ms", "ms", false, onServing},
			metricSpec{"server." + st + "_p99_ms", "ms", false, onServing})
	}
	return specs
}

func lookupMetric(name string) (metricSpec, error) {
	for _, m := range catalog {
		if m.name == name {
			return m, nil
		}
	}
	return metricSpec{}, fmt.Errorf("metric %q is not in the catalog", name)
}
