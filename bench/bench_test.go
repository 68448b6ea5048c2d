package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"v2v"
	"v2v/internal/telemetry"
)

// expose renders one stage histogram the way the server's /metrics
// does and parses it back.
func expose(t *testing.T, h *telemetry.Histogram) *telemetry.Exposition {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewExpoWriter(&buf)
	w.HistogramFamily("v2v_stage_seconds", "Per-stage request time.",
		telemetry.HistSeries{Labels: `stage="parse"`, Snap: h.Snapshot()})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	e, err := telemetry.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The delta of two scrapes must equal, bucket by bucket, the
// histogram of only the observations made between them.
func TestHistogramSubtractionIsExact(t *testing.T) {
	cumulative, between := telemetry.NewHistogram(), telemetry.NewHistogram()
	for i := range 5000 {
		cumulative.Observe(time.Duration(i*37%9000) * time.Microsecond)
	}
	before := expose(t, cumulative)
	for i := range 3000 {
		d := time.Duration(i*53%20000)*time.Microsecond + 3*time.Microsecond
		cumulative.Observe(d)
		between.Observe(d)
	}
	after := expose(t, cumulative)

	got, err := histDelta(before, after, "v2v_stage_seconds", `stage="parse"`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := histogramOf(expose(t, between), "v2v_stage_seconds", `stage="parse"`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) || !reflect.DeepEqual(got.Cum, want.Cum) || got.Count != want.Count {
		t.Fatalf("delta buckets differ:\n got %v (count %g)\nwant %v (count %g)", got.Cum, got.Count, want.Cum, want.Count)
	}
	if math.Abs(got.Sum-want.Sum) > 1e-9*want.Sum {
		t.Fatalf("delta sum %g, want %g", got.Sum, want.Sum)
	}
	if got.Count != 3000 || !math.IsInf(got.Bounds[len(got.Bounds)-1], 1) {
		t.Fatalf("delta count %g, last bound %g", got.Count, got.Bounds[len(got.Bounds)-1])
	}

	// A series absent before the phase subtracts nothing; one that went
	// backwards means the server restarted, and is an error.
	empty := &telemetry.Exposition{Families: map[string]*telemetry.ExpoFamily{}}
	if d, err := histDelta(empty, after, "v2v_stage_seconds", `stage="parse"`); err != nil || d.Count != 8000 {
		t.Fatalf("delta from an empty scrape: count %g, err %v", d.Count, err)
	}
	if _, err := histDelta(after, before, "v2v_stage_seconds", `stage="parse"`); err == nil {
		t.Fatal("a histogram that went backwards subtracted without error")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := hist{Bounds: []float64{0.001, 0.002, 0.004, math.Inf(1)}, Cum: []float64{50, 90, 100, 100}, Count: 100}
	cases := map[float64]float64{0.5: 0.001, 0.25: 0.0005, 0.7: 0.0015, 0.95: 0.003, 1: 0.004}
	for q, want := range cases {
		if got := h.quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	inf := hist{Bounds: []float64{0.001, math.Inf(1)}, Cum: []float64{1, 10}, Count: 10}
	if got := inf.quantile(0.99); got != 0.001 {
		t.Errorf("quantile in the +Inf bucket = %g, want the largest finite bound", got)
	}
	if got := (hist{}).quantile(0.99); got != 0 {
		t.Errorf("quantile of an empty histogram = %g", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range catalog {
		if !metricName.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("catalog entry %q (unit %q) is malformed or repeated", m.name, m.unit)
		}
		seen[m.name] = true
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, e := range b.EndToEnd {
		listed[e.Name] = true
		if m, err := lookupMetric(e.Name); err != nil || !m.e2e || m.unit != e.Unit {
			t.Errorf("end-to-end %q (%s) does not match the catalog: %+v %v", e.Name, e.Unit, m, err)
		}
	}
	for _, e := range b.PerLayer {
		listed[e.Name] = true
		if m, err := lookupMetric(e.Name); err != nil || m.e2e || m.unit != e.Unit {
			t.Errorf("per-layer %q (%s) does not match the catalog: %+v %v", e.Name, e.Unit, m, err)
		}
	}
	for _, m := range catalog {
		if !listed[m.name] {
			t.Errorf("catalog metric %q is missing from BENCHMARK.json", m.name)
		}
	}
}

// Every workload's result holds every metric of its kind of run: an
// untraced run only the end-to-end metrics, a traced run every
// per-layer metric, with the layers its workload does not run at 0.
func TestCompleteReportsEveryMetric(t *testing.T) {
	for workload := range workloads {
		for _, traced := range []bool{false, true} {
			r := &run{workload: workload, traced: traced, metrics: map[string]metricValue{}, detail: map[string]any{}}
			for _, m := range catalog {
				if m.runsOn(workload) {
					r.set(m.name, 1)
				}
			}
			r.complete()
			for _, m := range catalog {
				v, ok := r.metrics[m.name]
				switch {
				case m.e2e == traced:
					if ok {
						t.Errorf("%s traced=%v reports %s, of the other kind", workload, traced, m.name)
					}
				case !ok:
					t.Errorf("%s traced=%v misses %s", workload, traced, m.name)
				case v.Value != 0 && !m.runsOn(workload):
					t.Errorf("%s traced=%v: %s is not on its path but reads %g", workload, traced, m.name, v.Value)
				}
			}
			if len(r.checks) != 0 {
				t.Errorf("%s traced=%v: a complete run failed checks %+v", workload, traced, r.checks)
			}
		}
	}

	r := &run{workload: "pipeline", traced: true, metrics: map[string]metricValue{}, detail: map[string]any{}}
	r.complete()
	r.expect("other", true, "")
	if r.correct() {
		t.Error("a traced pipeline run that measured no layer passed")
	}
}

// The same seed generates the same graph, store and request sequence;
// another seed generates different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	edges := func(seed uint64) []byte {
		g, truth := v2v.CommunityBenchmark(v2v.DefaultBenchmarkConfig(pipelineAlpha, seed))
		var buf bytes.Buffer
		if err := v2v.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		for _, c := range truth {
			buf.WriteByte(byte(c))
		}
		return buf.Bytes()
	}
	store := func(seed uint64) []float32 {
		m, _ := genStore(seed)
		return m.Vectors
	}
	requests := func(seed uint64) [][]request {
		_, tokens := genStore(seed)
		gens := []*reqGen{
			newReqGen(seed, 0, tokens, storeDim, serveMixed.writeFrac),
			newReqGen(seed, 1, tokens, storeDim, serveMixed.writeFrac),
		}
		return schedule(gens, 500)
	}
	if !bytes.Equal(edges(7), edges(7)) || bytes.Equal(edges(7), edges(8)) {
		t.Error("graph: same seed must give the same graph, another seed another")
	}
	if !reflect.DeepEqual(store(7), store(7)) || reflect.DeepEqual(store(7), store(8)) {
		t.Error("store: same seed must give the same vectors, another seed others")
	}
	a, b, c := requests(7), requests(7), requests(8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("requests: same seed must give the same sequence, another seed another")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("requests: the two connections replay the same sequence")
	}
	writes := 0
	for _, conn := range a {
		for _, rq := range conn {
			if rq.Kind.write() {
				writes++
			}
		}
	}
	if share := float64(writes) / 1000; share < 0.1 || share > 0.2 {
		t.Errorf("write share %.3f, want about %.2f", share, serveMixed.writeFrac)
	}
}

func TestWindowedPercentiles(t *testing.T) {
	var s []sample
	for i := range 2500 {
		s = append(s, sample{Kind: opNeighbors, Due: 0, Done: time.Duration(i%1000+1) * time.Millisecond, Status: 200})
	}
	s = append(s, sample{Kind: opUpsert, Done: time.Hour, Status: 200}, sample{Kind: opNeighbors, Done: time.Hour, Status: 500})
	got := windowed(s, isRead, 1000, 0.99)
	if len(got) != 2 {
		t.Fatalf("%d windows from 2500 reads of at least 1000, want 2", len(got))
	}
	for _, p := range got {
		if p < 980 || p > 1000 {
			t.Errorf("window p99 %g ms, want about 990", p)
		}
	}
}

// play sends every request on its connection at its due time and
// times it from then.
func TestPlayOpenLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	lc := newLoadClient(srv.URL, 2)
	defer lc.close()

	reqs := make([][]request, 2)
	for c := range reqs {
		for range 50 {
			reqs[c] = append(reqs[c], getReq(opNeighbors, "/v1/neighbors?vertex=a&k=10"))
		}
	}
	const rate = 1000.0
	s := lc.play(reqs, rate)
	if len(s) != 100 {
		t.Fatalf("%d samples, want 100", len(s))
	}
	for i, x := range s {
		want := time.Duration(float64(x.Seq*2+x.Conn) / rate * float64(time.Second))
		if !x.ok() || x.Due != want || x.Sent < x.Due || x.Done < x.Sent || (i > 0 && x.Due < s[i-1].Due) {
			t.Fatalf("sample %d: %+v (want due %v, ascending)", i, x, want)
		}
	}
}
