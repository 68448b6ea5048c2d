package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"v2v"
	"v2v/internal/server"
	"v2v/internal/snapshot"
	"v2v/internal/vecstore"
	"v2v/internal/word2vec"
	"v2v/internal/xrand"
)

// The serving workloads share one store shape: 10k x 64 float32 rows
// placed around 100 well-separated anchors, the shape of a trained
// graph embedding (as cmd/hnswrecall's clustered store).
const (
	storeVectors  = 10000
	storeDim      = 64
	storeClusters = 100

	recallQueries = 200
	// recallFloor fails a serving run: recall@10 on this store is
	// 1.000 today, for HNSW and for the exact index.
	recallFloor = 0.95

	warmup = time.Second
	// windowSamples is the size of one latency window: its p99 has
	// ten samples beyond it.
	windowSamples = 1000

	searchTimingQueries = 2000
)

// serveSpec describes one serving workload.
type serveSpec struct {
	name      string
	index     vecstore.Config
	cacheSize int // server.Config.CacheSize: negative disables the cache
	wal       bool
	writeFrac float64

	// setupReps set-ups make up the set-up figure (their median); the
	// last one serves the measurement.
	setupReps int

	// nominalRate is the fixed offered rate (req/s) the latency
	// metrics are taken at: high enough that the CPUs do not idle
	// between requests, below the knee (see README.md).
	nominalRate float64
}

// serveRead: uncached HNSW reads — every request does index work.
var serveRead = serveSpec{
	name:        "serve-read",
	index:       vecstore.Config{Kind: vecstore.KindHNSW},
	cacheSize:   -1,
	setupReps:   3,
	nominalRate: 2000,
}

// serveMixed: exact index over two in-process shards, WAL with
// fsync=always, response cache on, 15% writes (upsert:delete 2:1).
var serveMixed = serveSpec{
	name:        "serve-mixed",
	index:       vecstore.Config{Kind: vecstore.KindExact, Shards: 2},
	wal:         true,
	writeFrac:   0.15,
	setupReps:   15,
	nominalRate: 800,
}

// genStore generates the served model and its token table from seed.
func genStore(seed uint64) (*word2vec.Model, []string) {
	m := word2vec.NewModel(storeVectors, storeDim)
	rng := xrand.New(seed)
	anchors := make([]float64, storeClusters*storeDim)
	for i := range anchors {
		anchors[i] = rng.NormFloat64() * 5
	}
	for i := 0; i < storeVectors; i++ {
		a := anchors[rng.Intn(storeClusters)*storeDim:]
		row := m.Vectors[i*storeDim : (i+1)*storeDim]
		for j := range row {
			row[j] = float32(a[j] + rng.NormFloat64()*0.5)
		}
	}
	tokens := make([]string, storeVectors)
	for i := range tokens {
		tokens[i] = strconv.Itoa(i)
	}
	return m, tokens
}

// stack is one set-up serving stack: the generated model, the index
// the bundle was built with (serve-read) and the running server.
type stack struct {
	base   string
	model  *word2vec.Model
	tokens []string
	index  vecstore.Index
	steps  map[string]float64 // set-up step times, ms
	cancel context.CancelFunc
	errc   chan error
}

// stop shuts the server down and waits for it to return.
func (s *stack) stop() error {
	s.cancel()
	return <-s.errc
}

// setupServe builds one stack the way a user would: generate the
// store, build and save the bundle (`v2v index` for HNSW; a plain
// snapshot for the exact index, which the server builds itself), load
// it through server.New (`v2v serve`), listen, and wait for /healthz.
func setupServe(r *run, spec serveSpec, rep int) (*stack, error) {
	st := &stack{steps: map[string]float64{}}
	t := time.Now()
	lap := func(step string) {
		now := time.Now()
		st.steps[step] = ms(now.Sub(t))
		t = now
	}
	st.model, st.tokens = genStore(r.seed)
	lap("gen")
	path := filepath.Join(r.dir, fmt.Sprintf("%s-%d.snap", spec.name, rep))
	cfg := server.Config{Addr: "127.0.0.1:0", ModelPath: path, Index: spec.index, CacheSize: spec.cacheSize}
	if spec.index.Kind == vecstore.KindHNSW {
		idx, err := v2v.NewIndex(st.model, spec.index)
		if err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		lap("build")
		if err := v2v.SaveIndexedSnapshotFile(path, st.model, st.tokens, idx); err != nil {
			return nil, fmt.Errorf("save bundle: %w", err)
		}
		st.index = idx
	} else if err := snapshot.SaveFile(path, st.model, st.tokens); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	lap("save")
	if spec.wal {
		cfg.WAL = server.WALConfig{Dir: filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep)), Sync: "always"}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	lap("load")
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	st.errc = make(chan error, 1)
	go func() { st.errc <- srv.ListenAndServe(ctx, ready) }()
	select {
	case a := <-ready:
		st.base, st.cancel = "http://"+a.String(), cancel
	case err := <-st.errc:
		cancel()
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(st.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	client.CloseIdleConnections()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("healthz: %w", err), st.stop())
	}
	lap("ready")
	return st, nil
}

// phaseFunc plays one named open-loop phase at rate for length and
// accounts its requests.
type phaseFunc func(name string, rate float64, length time.Duration) []sample

func runServe(r *run, spec serveSpec) (err error) {
	var st *stack
	steps := map[string][]float64{}
	var setupS []float64
	for rep := range spec.setupReps {
		if st != nil {
			if err := st.stop(); err != nil {
				return fmt.Errorf("stop set-up %d: %w", rep-1, err)
			}
		}
		runtime.GC()
		t := time.Now()
		if st, err = setupServe(r, spec, rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		for k, v := range st.steps {
			steps[k] = append(steps[k], v)
		}
	}
	defer func() {
		if serr := st.stop(); serr != nil && err == nil {
			err = fmt.Errorf("server shutdown: %w", serr)
		}
	}()
	r.set("setup_s", median(setupS))
	if b, ok := steps["build"]; ok {
		r.set("vecstore.build_ms", median(b))
	}
	r.set("snapshot.save_ms", median(steps["save"]))
	r.set("snapshot.load_ms", median(steps["load"]))
	r.note("setup_s_samples", setupS)
	r.note("setup_step_ms", steps)

	d := newLoadClient(st.base, procs())
	defer d.close()
	gens := make([]*reqGen, procs())
	for c := range gens {
		gens[c] = newReqGen(r.seed, c, st.tokens, storeDim, spec.writeFrac)
	}
	var writes []sample // every write sent, for the read-your-writes audit

	// phase plays one open-loop phase of the given length at rate and
	// accounts its requests.
	phase := phaseFunc(func(name string, rate float64, length time.Duration) []sample {
		perConn := int(math.Ceil(rate * length.Seconds() / float64(len(gens))))
		s := d.play(schedule(gens, perConn), rate)
		ps := summarize(s)
		r.attempted += int64(ps.Sent)
		r.failed += int64(ps.Failed)
		r.expect("all_answered/"+name, ps.Failed == 0, "%d of %d requests failed", ps.Failed, ps.Sent)
		for _, x := range s {
			if x.Kind.write() {
				writes = append(writes, x)
			}
		}
		return s
	})

	if err := measureRecall(r, d, st); err != nil {
		return err
	}
	phase("warmup", spec.nominalRate, warmup)

	nominal := time.Duration(r.seconds * float64(time.Second))
	nominal = max(nominal, minPhase(spec))
	if r.traced {
		if err := tracedServe(r, spec, d, st, phase, nominal); err != nil {
			return err
		}
	} else {
		reportLatency(r, spec, phase("nominal", spec.nominalRate, nominal))
	}
	if spec.writeFrac > 0 {
		audit(r, d, st, writes)
	}
	return nil
}

// minPhase is the shortest nominal phase that fills three latency
// windows, with 10% to spare.
func minPhase(spec serveSpec) time.Duration {
	return time.Duration(1.1 * 3 * windowSamples / spec.nominalRate * float64(time.Second))
}

// reportLatency sets the end-to-end metrics of a nominal phase. The
// latency percentiles cover every request of the workload's mix,
// reads and writes alike: each is the median over windows of
// windowSamples successful requests of that window's percentile. Read
// and write percentiles, pooled over the phase, go to the report.
func reportLatency(r *run, spec serveSpec, s []sample) {
	p50s := windowed(s, anyKind, windowSamples, 0.5)
	p99s := windowed(s, anyKind, windowSamples, 0.99)
	r.expect("latency_samples", len(p99s) > 0, "%d successful requests at the nominal rate (%d per window)",
		len(latencies(s, anyKind)), windowSamples)
	if len(p99s) == 0 {
		return
	}
	r.set("latency_p50_ms", median(p50s))
	r.set("latency_p99_ms", median(p99s))
	st := summarize(s)
	r.set("success_ratio", float64(st.Sent-st.Failed)/float64(st.Sent))
	counts := map[string]any{"windows": len(p99s), "p99_by_window_ms": p99s,
		"sent": st.Sent, "failed": st.Failed, "lag_p50_ms": st.LagP50Ms, "lag_p99_ms": st.LagP99Ms, "rate": spec.nominalRate}
	for kind, keep := range map[string]func(sample) bool{"read": isRead, "write": isWrite} {
		if lat := latencies(s, keep); len(lat) > 0 {
			counts[kind+"s"] = len(lat)
			counts[kind+"_p50_ms"] = percentile(lat, 0.5)
			counts[kind+"_p99_ms"] = percentile(lat, 0.99)
		}
	}
	r.note("nominal", counts)
}

// measureRecall compares the served top-10 of a fixed query sample
// with the exact top-10 of the same store and sets quality, the
// recall@10.
func measureRecall(r *run, d *loadClient, st *stack) error {
	exact := vecstore.NewExact(st.model.Store(), vecstore.Cosine, 1)
	rng := xrand.New(r.seed ^ 0x5EED)
	hits, total := 0, 0
	for range recallQueries {
		id := rng.Intn(storeVectors)
		rq := getReq(opNeighbors, "/v1/neighbors?vertex=%s&k=%d", st.tokens[id], queryK)
		status, body := d.do(0, &rq, true)
		r.attempted++
		if status != http.StatusOK {
			r.failed++
			r.expect("recall_query", false, "neighbors of %s: status %d", st.tokens[id], status)
			continue
		}
		var resp server.NeighborsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("recall: decode neighbors: %w", err)
		}
		served := map[string]bool{}
		for _, n := range resp.Neighbors {
			served[n.Vertex] = true
		}
		for _, t := range exact.SearchRow(id, queryK) {
			total++
			if served[st.tokens[t.ID]] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(max(total, 1))
	r.expect("recall_at_10", recall >= recallFloor, "recall@10 %.4f over %d queries (floor %.2f)", recall, recallQueries, recallFloor)
	r.set("quality", recall)
	return nil
}

// audit checks read-your-writes after the load: every token whose
// last acknowledged write was an upsert must be served with the
// upserted vector (its cosine to a fixed base row matches), and every
// token whose last acknowledged write was a delete must answer 404.
func audit(r *run, d *loadClient, st *stack, writes []sample) {
	type final struct {
		last  *request
		acked bool
	}
	state := map[string]*final{}
	var order []string
	for _, w := range writes {
		f := state[w.Req.Token]
		if f == nil {
			f = &final{acked: true}
			state[w.Req.Token] = f
			order = append(order, w.Req.Token)
		}
		f.last = w.Req
		f.acked = f.acked && w.ok()
	}
	ref := st.model.Vector(0)
	var checked, lost, unknown int
	for _, tok := range order {
		f := state[tok]
		if !f.acked {
			unknown++ // an unacknowledged write's outcome is unknown
			continue
		}
		rq := getReq(opSimilarity, "/v1/similarity?a=%s&b=%s", tok, st.tokens[0])
		status, body := d.do(0, &rq, true)
		r.attempted++
		checked++
		ok := false
		switch f.last.Kind {
		case opDelete:
			ok = status == http.StatusNotFound
		default:
			var resp server.SimilarityResponse
			ok = status == http.StatusOK && json.Unmarshal(body, &resp) == nil &&
				math.Abs(resp.Similarity-cosine(f.last.Vector, ref)) < 1e-4
		}
		if !ok {
			lost++
			r.failed++
		}
	}
	r.expect("read_your_writes", lost == 0 && checked > 0,
		"%d tokens checked after %d writes: %d lost, %d with an unacknowledged write", checked, len(writes), lost, unknown)
}

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	return dot / math.Sqrt(na*nb)
}

// tracedServe is the traced variant of the measurement: an untraced
// nominal phase, then the same phase again between two /metrics
// scrapes with every request kept as spans. The scrape deltas split
// the traced phase's mean latency into the generator's send lag, the
// server's stages and the remainders (see README.md); the difference
// between the two phases' mean latency is the tracing overhead.
func tracedServe(r *run, spec serveSpec, d *loadClient, st *stack, phase phaseFunc, nominal time.Duration) error {
	plain := summarize(phase("untraced", spec.nominalRate, nominal))
	before, err := scrape(d.clients[0], st.base)
	if err != nil {
		return err
	}
	tr := newTracer()
	t0 := time.Now()
	s := phase("traced", spec.nominalRate, nominal)
	after, err := scrape(d.clients[0], st.base)
	if err != nil {
		return err
	}
	for _, x := range s {
		id := fmt.Sprintf("traced/%d/%d", x.Conn, x.Seq)
		due, sent, done := t0.Add(x.Due), t0.Add(x.Sent), t0.Add(x.Done)
		root := tr.add(id, "request/"+x.Kind.String(), 0, due, done)
		tr.add(id, "loadgen.send_lag", root, due, sent)
		tr.add(id, "server.call", root, sent, done)
	}
	r.spans = tr.spans

	ph := summarize(s)
	n := float64(ph.Sent)
	r.set("loadgen.sent", n)
	r.set("loadgen.latency_mean_ms", ph.LatencyMeanMs)
	r.set("loadgen.lag_mean_ms", ph.LagMeanMs)
	r.set("loadgen.lag_p50_ms", ph.LagP50Ms)
	r.set("loadgen.lag_p99_ms", ph.LagP99Ms)
	r.set("trace.overhead_pct", (ph.LatencyMeanMs-plain.LatencyMeanMs)/plain.LatencyMeanMs*100)

	var staged float64
	breakdown := map[string]float64{"latency_mean": ph.LatencyMeanMs, "loadgen.lag_mean": ph.LagMeanMs}
	for _, stage := range serverStages {
		h, err := histDelta(before, after, "v2v_stage_seconds", `stage="`+stage+`"`)
		if err != nil {
			return fmt.Errorf("stage %s: %w", stage, err)
		}
		share := h.Sum * 1000 / n
		r.set("server."+stage+"_ms", share)
		r.set("server."+stage+"_p99_ms", h.quantile(0.99)*1000)
		if !detailStage(stage) {
			staged += share
			breakdown["server."+stage] = share
		}
	}
	var reqSum, reqCount float64
	for _, ep := range opEndpoints {
		h, err := histDelta(before, after, "v2v_request_seconds", `endpoint="`+ep+`"`)
		if err != nil {
			return fmt.Errorf("endpoint %s: %w", ep, err)
		}
		reqSum += h.Sum
		reqCount += h.Count
	}
	requestMs := reqSum * 1000 / n
	r.set("server.request_ms", requestMs)
	r.set("server.unstaged_ms", requestMs-staged)
	r.set("server.unattributed_ms", ph.LatencyMeanMs-ph.LagMeanMs-requestMs)
	breakdown["server.unstaged"] = requestMs - staged
	breakdown["server.unattributed"] = ph.LatencyMeanMs - ph.LagMeanMs - requestMs
	r.note("breakdown_ms", breakdown)
	r.note("traced_phase", map[string]float64{"client_requests": n, "server_requests": reqCount, "failed": float64(ph.Failed)})

	r.set("server.shed", counterDeltaAll(before, after, "v2v_admission_shed_total"))
	r.set("server.expired", counterDeltaAll(before, after, "v2v_deadline_expired_total"))
	r.set("server.compactions", counterDelta(before, after, "v2v_compactions_total", ""))
	hits := counterDelta(before, after, "v2v_cache_hits_total", "")
	misses := counterDelta(before, after, "v2v_cache_misses_total", "")
	r.set("server.cache_hits", hits)
	r.set("server.cache_misses", misses)
	if hits+misses > 0 {
		r.set("server.cache_hit_ratio", hits/(hits+misses))
	} else {
		r.set("server.cache_hit_ratio", 0) // the cache is off
	}
	if spec.wal {
		writes := counterDelta(before, after, "v2v_upserts_total", "") + counterDelta(before, after, "v2v_deletes_total", "")
		fsyncs := counterDelta(before, after, "v2v_wal_fsyncs_total", "")
		r.set("wal.fsyncs", fsyncs)
		if fsyncs > 0 && writes > 0 {
			r.set("wal.writes_per_fsync", writes/fsyncs)
			r.set("wal.bytes_per_write", counterDelta(before, after, "v2v_wal_appended_bytes_total", "")/writes)
		}
	}
	return searchTiming(r, spec, st)
}

// searchTiming times direct SearchRow calls (the call /v1/neighbors
// makes) on one goroutine against the index the server serves: the
// bundled HNSW index for serve-read, the same exact two-shard
// configuration for serve-mixed.
func searchTiming(r *run, spec serveSpec, st *stack) error {
	idx := st.index
	if idx == nil {
		var err error
		if idx, err = vecstore.Open(st.model.Store(), spec.index); err != nil {
			return fmt.Errorf("open index for search timing: %w", err)
		}
	}
	rng := xrand.New(r.seed ^ 0x5EA4C)
	ids := make([]int, searchTimingQueries)
	for i := range ids {
		ids[i] = rng.Intn(storeVectors)
	}
	for _, id := range ids[:200] {
		idx.SearchRow(id, queryK)
	}
	us := make([]float64, len(ids))
	for i, id := range ids {
		t := time.Now()
		idx.SearchRow(id, queryK)
		us[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	r.set("vecstore.search_us_p50", percentile(us, 0.5))
	r.set("vecstore.search_us_p99", percentile(us, 0.99))
	return nil
}
