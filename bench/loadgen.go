package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"v2v/internal/xrand"
)

// This file is the benchmark's own open-loop load generator (the loadgen
// layer of a breakdown). Each connection replays a request sequence
// generated up front from the seed, on a fixed schedule: request i of
// connection c out of n is due at (i*n + c)/rate after the phase
// starts, whether or not earlier requests have finished. Every sample
// keeps when it was due, when it was sent and when it finished, so
// latency is timed from the due time and the generator's own lateness
// (send lag) is reported beside it.

type opKind uint8

const (
	opNeighbors opKind = iota
	opSimilarity
	opPredict
	opNeighborsBatch
	opUpsert
	opDelete
)

var opNames = [...]string{"neighbors", "similarity", "predict", "neighbors-batch", "upsert", "delete"}

// endpoint is the server's endpoint label for the operation.
var opEndpoints = [...]string{"neighbors", "similarity", "predict", "neighbors_batch", "upsert", "delete"}

func (k opKind) String() string { return opNames[k] }
func (k opKind) write() bool    { return k == opUpsert || k == opDelete }

// readMix is the repository's read mix (the Makefile's loadgen
// targets): neighbors 0.85, similarity 0.05, predict 0.05,
// neighbors-batch 0.05.
var readMix = []struct {
	kind   opKind
	weight float64
}{{opNeighbors, 0.85}, {opSimilarity, 0.05}, {opPredict, 0.05}, {opNeighborsBatch, 0.05}}

const (
	queryK    = 10
	batchSize = 16
)

// request is one scheduled HTTP request, built before the clock
// starts.
type request struct {
	Kind   opKind
	Method string
	Path   string // with query string
	Body   []byte
	Token  string    // write target
	Vector []float32 // upsert payload
}

// reqGen generates one connection's request sequence. Writes touch
// only tokens in the connection's own namespace, so the order of one
// token's writes is the order the connection sends them.
type reqGen struct {
	rng         *xrand.RNG
	vocab       []string
	dim         int
	writeFrac   float64
	conn        int
	seq         int
	outstanding []string // upserted and not yet deleted
}

func newReqGen(seed uint64, conn int, vocab []string, dim int, writeFrac float64) *reqGen {
	return &reqGen{rng: xrand.New(seed ^ (0x9E3779B97F4A7C15 * uint64(conn+1))), vocab: vocab, dim: dim, writeFrac: writeFrac, conn: conn}
}

func (g *reqGen) tok() string { return g.vocab[g.rng.Intn(len(g.vocab))] }

func (g *reqGen) next() request {
	if g.writeFrac > 0 && g.rng.Float64() < g.writeFrac {
		// Writes split 2:1 between upserts and deletes, as in
		// loadgen.WithWriteFraction; a delete with nothing to delete
		// runs as an upsert.
		if g.rng.Float64() < 1.0/3 && len(g.outstanding) > 0 {
			return g.delete()
		}
		return g.upsert()
	}
	u := g.rng.Float64()
	kind := readMix[len(readMix)-1].kind
	for _, m := range readMix {
		if u < m.weight {
			kind = m.kind
			break
		}
		u -= m.weight
	}
	switch kind {
	case opSimilarity:
		return getReq(kind, "/v1/similarity?a=%s&b=%s", url.QueryEscape(g.tok()), url.QueryEscape(g.tok()))
	case opPredict:
		return getReq(kind, "/v1/predict?u=%s&v=%s", url.QueryEscape(g.tok()), url.QueryEscape(g.tok()))
	case opNeighborsBatch:
		vs := make([]string, batchSize)
		for i := range vs {
			vs[i] = g.tok()
		}
		return postReq(kind, "/v1/neighbors/batch", map[string]any{"vertices": vs, "k": queryK})
	default:
		return getReq(kind, "/v1/neighbors?vertex=%s&k=%d", url.QueryEscape(g.tok()), queryK)
	}
}

// upsert inserts a fresh token, or every fourth time rewrites an
// outstanding one (the replace-and-tombstone path).
func (g *reqGen) upsert() request {
	var tok string
	if g.seq%4 == 3 && len(g.outstanding) > 0 {
		tok = g.outstanding[g.rng.Intn(len(g.outstanding))]
	} else {
		tok = "bw" + strconv.Itoa(g.conn) + "-" + strconv.Itoa(g.seq)
		g.outstanding = append(g.outstanding, tok)
	}
	g.seq++
	vec := make([]float32, g.dim)
	for i := range vec {
		vec[i] = float32(g.rng.Float64()*2 - 1)
	}
	rq := postReq(opUpsert, "/v1/upsert", map[string]any{"vertex": tok, "vector": vec})
	rq.Token, rq.Vector = tok, vec
	return rq
}

func (g *reqGen) delete() request {
	i := g.rng.Intn(len(g.outstanding))
	tok := g.outstanding[i]
	g.outstanding[i] = g.outstanding[len(g.outstanding)-1]
	g.outstanding = g.outstanding[:len(g.outstanding)-1]
	rq := postReq(opDelete, "/v1/delete", map[string]any{"vertex": tok})
	rq.Token = tok
	return rq
}

func getReq(kind opKind, format string, args ...any) request {
	return request{Kind: kind, Method: http.MethodGet, Path: fmt.Sprintf(format, args...)}
}

func postReq(kind opKind, path string, body any) request {
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of strings, ints and float32 slices always marshal
	}
	return request{Kind: kind, Method: http.MethodPost, Path: path, Body: buf}
}

// schedule generates n requests for each generator.
func schedule(gens []*reqGen, perConn int) [][]request {
	out := make([][]request, len(gens))
	for c, g := range gens {
		out[c] = make([]request, perConn)
		for i := range out[c] {
			out[c][i] = g.next()
		}
	}
	return out
}

// statusTransport is a sample's status when no response came back
// (connection or body read failed).
const statusTransport = 0

// sample is one request's outcome. Times are offsets from the phase
// start.
type sample struct {
	Conn, Seq       int
	Kind            opKind
	Due, Sent, Done time.Duration
	Status          int
	Req             *request
}

func (s sample) ok() bool           { return s.Status == http.StatusOK }
func (s sample) latencyMs() float64 { return ms(s.Done - s.Due) }
func (s sample) lagMs() float64     { return ms(s.Sent - s.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadClient owns one HTTP client per connection, each limited to a
// single TCP connection.
type loadClient struct {
	base    string
	clients []*http.Client
}

func newLoadClient(base string, conns int) *loadClient {
	d := &loadClient{base: base}
	for range conns {
		d.clients = append(d.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return d
}

func (d *loadClient) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request on connection c and returns the status and
// body (nil unless keep is set).
func (d *loadClient) do(c int, rq *request, keep bool) (int, []byte) {
	var body io.Reader
	if rq.Body != nil {
		body = bytes.NewReader(rq.Body)
	}
	hr, err := http.NewRequest(rq.Method, d.base+rq.Path, body)
	if err != nil {
		return statusTransport, nil
	}
	if rq.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.clients[c].Do(hr)
	if err != nil {
		return statusTransport, nil
	}
	defer resp.Body.Close()
	var out []byte
	if keep {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return statusTransport, nil
	}
	return resp.StatusCode, out
}

// play runs one open-loop phase at the given aggregate rate and
// returns every request's sample, ordered by due time.
func (d *loadClient) play(reqs [][]request, rate float64) []sample {
	conns := len(reqs)
	dueAt := func(c, i int) time.Duration {
		return time.Duration(float64(i*conns+c) / rate * float64(time.Second))
	}
	start := time.Now().Add(2 * time.Millisecond)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, len(reqs[c]))
			for i := range reqs[c] {
				rq := &reqs[c][i]
				due := dueAt(c, i)
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				status, _ := d.do(c, rq, false)
				out = append(out, sample{Conn: c, Seq: i, Kind: rq.Kind, Due: due, Sent: sent, Done: time.Since(start), Status: status, Req: rq})
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Due < all[j].Due })
	return all
}

// sleepUntil returns at t with sub-millisecond precision. The Go
// runtime wakes a short time.Sleep on a millisecond grid when it is
// otherwise idle (about 0.5 ms late at the median), so the last stretch
// before t is a nanosleep system call, which wakes within tens of
// microseconds. The runtime hands the sleeping goroutine's processor to
// other work while it waits in the call.
func sleepUntil(t time.Time) {
	const coarse = 1500 * time.Microsecond
	d := time.Until(t)
	if d > coarse {
		time.Sleep(d - coarse)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// phaseStats summarises the samples of one phase.
type phaseStats struct {
	Sent, Failed       int
	LatencyMeanMs      float64
	LagMeanMs          float64
	LagP50Ms, LagP99Ms float64
}

func summarize(samples []sample) phaseStats {
	var st phaseStats
	var lat, lag []float64
	for _, s := range samples {
		st.Sent++
		if !s.ok() {
			st.Failed++
		}
		lat = append(lat, s.latencyMs())
		lag = append(lag, s.lagMs())
	}
	st.LatencyMeanMs = mean(lat)
	st.LagMeanMs = mean(lag)
	st.LagP50Ms = percentile(lag, 0.5)
	st.LagP99Ms = percentile(lag, 0.99)
	return st
}

// latencies returns the latencies (ms) of the successful samples that
// pass keep.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok() && keep(s) {
			out = append(out, s.latencyMs())
		}
	}
	return out
}

// windowed splits the samples into consecutive windows of at least
// minSamples kept samples each (by due order) and returns the q-quantile
// of every window. Reporting the median of window quantiles keeps one
// stall from moving a run's figure, while each window's tail still
// has ten samples beyond it.
func windowed(samples []sample, keep func(sample) bool, minSamples int, q float64) []float64 {
	lat := latencies(samples, keep)
	n := len(lat) / minSamples
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for w := range out {
		lo, hi := w*len(lat)/n, (w+1)*len(lat)/n
		out[w] = percentile(append([]float64(nil), lat[lo:hi]...), q)
	}
	return out
}

func anyKind(sample) bool   { return true }
func isRead(s sample) bool  { return !s.Kind.write() }
func isWrite(s sample) bool { return s.Kind.write() }
