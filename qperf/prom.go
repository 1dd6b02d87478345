package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// families are the /metrics families the per-layer ledger reads. A
// histogram family contributes only its _sum and _count series.
var families = []string{
	"http_request_seconds",
	"http_request_errors_total",
	"sketch_view_rebuilds_total",
	"sketch_memory_elements",
	"keyed_keys_created_total",
	"keyed_evictions_total",
	"keyed_memory_bound_elements",
	"keyed_window_rebuilds_total",
	"keyed_window_rotations_total",
	"cluster_merge_seconds",
	"cluster_view_rebuild_seconds",
	"cluster_view_rebuilds_total",
	"cluster_bytes_ingested_total",
	"cluster_shipments_accepted_total",
	"cluster_shipments_rejected_total",
	"cluster_shipments_deduped_total",
}

// scrape maps a series, written as in the exposition (`name` or
// `name{label="v",...}`), to its value.
type scrape map[string]float64

// family returns the family a series name belongs to, or "" when the
// ledger does not read it.
func family(name string) string {
	for _, f := range families {
		if name == f || name == f+"_sum" || name == f+"_count" {
			return f
		}
	}
	return ""
}

// parseScrape reads Prometheus text exposition and keeps the series of the
// listed families. Comment lines and every other family are skipped; a
// malformed sample line of a listed family is an error.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if family(name) == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// diff returns after − before for one series (a series absent from a
// scrape reads as 0).
func diff(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// ratio divides, reading 0 when the denominator is 0: a layer that did no
// work on a workload reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
