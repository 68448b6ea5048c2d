package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"v2v/internal/telemetry"
)

// scrape fetches and parses the server's /metrics page.
func scrape(client *http.Client, base string) (*telemetry.Exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	e, err := telemetry.ParseExposition(body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	return e, e.Validate()
}

// hist is one histogram series of an exposition: cumulative bucket
// counts at ascending upper bounds (the last is +Inf), plus _sum and
// _count. Seconds throughout, as exposed.
type hist struct {
	Bounds []float64
	Cum    []float64
	Sum    float64
	Count  float64
}

// histogramOf extracts series `family{labels}` (labels without le,
// e.g. `stage="parse"`). A series the page does not carry — the
// server omits histograms with no observations — is the zero
// histogram on the given bucket ladder.
func histogramOf(e *telemetry.Exposition, family, labels string) (hist, error) {
	h := hist{}
	f := e.Family(family)
	if f == nil {
		return h, nil
	}
	prefix := `le="`
	if labels != "" {
		prefix = labels + `,le="`
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for l, v := range f.Series["_bucket"] {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok || strings.Contains(rest, ",") {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"`), 64)
		if err != nil {
			return h, fmt.Errorf("%s{%s}: bad le %q", family, labels, rest)
		}
		bs = append(bs, bucket{le, v})
	}
	if len(bs) == 0 {
		return h, nil
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		h.Bounds = append(h.Bounds, b.le)
		h.Cum = append(h.Cum, b.cum)
	}
	h.Sum = f.Series["_sum"][labels]
	h.Count = f.Series["_count"][labels]
	return h, nil
}

// sub returns the observations h holds beyond before, bucket by
// bucket: the histogram of what happened between two scrapes. An
// empty before (the series did not exist yet) subtracts nothing.
func (h hist) sub(before hist) (hist, error) {
	if len(before.Bounds) == 0 {
		return h, nil
	}
	if len(h.Bounds) != len(before.Bounds) {
		return hist{}, fmt.Errorf("bucket ladders differ: %d vs %d buckets", len(h.Bounds), len(before.Bounds))
	}
	d := hist{Bounds: h.Bounds, Cum: make([]float64, len(h.Cum)), Sum: h.Sum - before.Sum, Count: h.Count - before.Count}
	for i := range h.Cum {
		if h.Bounds[i] != before.Bounds[i] {
			return hist{}, fmt.Errorf("bucket %d bound differs: %g vs %g", i, h.Bounds[i], before.Bounds[i])
		}
		d.Cum[i] = h.Cum[i] - before.Cum[i]
		if d.Cum[i] < 0 {
			return hist{}, fmt.Errorf("bucket le=%g went backwards (%g -> %g): the server restarted between scrapes", h.Bounds[i], before.Cum[i], h.Cum[i])
		}
	}
	if d.Count < 0 {
		return hist{}, fmt.Errorf("count went backwards")
	}
	return d, nil
}

// quantile estimates the q-quantile in seconds by linear
// interpolation inside the bucket holding it (the usual estimate from
// a bucketed histogram; its error is bounded by the bucket width).
// An observation in the +Inf bucket reports the largest finite bound.
func (h hist) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Cum) == 0 {
		return 0
	}
	rank := q * h.Count
	lower, prevCum := 0.0, 0.0
	for i, c := range h.Cum {
		if c >= rank {
			if math.IsInf(h.Bounds[i], 1) {
				return lower
			}
			if c == prevCum {
				return h.Bounds[i]
			}
			return lower + (h.Bounds[i]-lower)*(rank-prevCum)/(c-prevCum)
		}
		lower, prevCum = h.Bounds[i], c
	}
	return lower
}

// counterDelta is after - before for series name{labels} (a missing
// series counts as 0).
func counterDelta(before, after *telemetry.Exposition, name, labels string) float64 {
	a, _ := after.Value(name, labels)
	b, _ := before.Value(name, labels)
	return a - b
}

// counterDeltaAll sums counterDelta over every series of a family.
func counterDeltaAll(before, after *telemetry.Exposition, name string) float64 {
	var d float64
	if f := after.Family(name); f != nil {
		for labels := range f.Series[""] {
			d += counterDelta(before, after, name, labels)
		}
	}
	return d
}

// histDelta subtracts series family{labels} between two scrapes.
func histDelta(before, after *telemetry.Exposition, family, labels string) (hist, error) {
	a, err := histogramOf(after, family, labels)
	if err != nil {
		return hist{}, err
	}
	b, err := histogramOf(before, family, labels)
	if err != nil {
		return hist{}, err
	}
	return a.sub(b)
}
