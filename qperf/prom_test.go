package main

import (
	"strings"
	"testing"
)

// exposition is a scrape in the servers' format, with every family the
// ledger reads plus families and series it must skip.
const exposition = `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{endpoint="ingest"} 12
http_request_errors_total{endpoint="ingest"} 0
http_request_errors_total{endpoint="quantile"} 2
http_request_seconds_bucket{endpoint="ingest",le="0.001"} 3
http_request_seconds_sum{endpoint="ingest"} 0.25
http_request_seconds_count{endpoint="ingest"} 12
http_request_seconds_sum{endpoint="quantile"} 0.5
http_request_seconds_count{endpoint="quantile"} 100
sketch_elements_total 1000
sketch_memory_elements 1284
sketch_view_rebuilds_total 7
keyed_keys_created_total 2048
keyed_evictions_total{reason="lru"} 1024
keyed_evictions_total{reason="ttl"} 0
keyed_memory_bound_elements 5e+06
keyed_window_rebuilds_total 40
keyed_window_rotations_total 300
cluster_merge_seconds_count 64
cluster_merge_seconds_sum 0.0032
cluster_view_rebuild_seconds_sum 0.01
cluster_view_rebuild_seconds_count 10
cluster_view_rebuilds_total 10
cluster_bytes_ingested_total 416000
cluster_shipments_accepted_total 64
cluster_shipments_rejected_total 1
cluster_shipments_deduped_total 2
cluster_worker_elements_total{worker="w0"} 2000
`

func TestParseScrapeKeepsListedFamilies(t *testing.T) {
	s, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`http_request_errors_total{endpoint="ingest"}`:    0,
		`http_request_errors_total{endpoint="quantile"}`:  2,
		`http_request_seconds_sum{endpoint="ingest"}`:     0.25,
		`http_request_seconds_count{endpoint="ingest"}`:   12,
		`http_request_seconds_sum{endpoint="quantile"}`:   0.5,
		`http_request_seconds_count{endpoint="quantile"}`: 100,
		"sketch_memory_elements":                          1284,
		"sketch_view_rebuilds_total":                      7,
		"keyed_keys_created_total":                        2048,
		`keyed_evictions_total{reason="lru"}`:             1024,
		`keyed_evictions_total{reason="ttl"}`:             0,
		"keyed_memory_bound_elements":                     5e6,
		"keyed_window_rebuilds_total":                     40,
		"keyed_window_rotations_total":                    300,
		"cluster_merge_seconds_count":                     64,
		"cluster_merge_seconds_sum":                       0.0032,
		"cluster_view_rebuild_seconds_sum":                0.01,
		"cluster_view_rebuild_seconds_count":              10,
		"cluster_view_rebuilds_total":                     10,
		"cluster_bytes_ingested_total":                    416000,
		"cluster_shipments_accepted_total":                64,
		"cluster_shipments_rejected_total":                1,
		"cluster_shipments_deduped_total":                 2,
	}
	for k, v := range want {
		if got, ok := s[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	for k := range s {
		if _, ok := want[k]; !ok {
			t.Errorf("kept unlisted series %s", k)
		}
	}
	// Every listed family is exercised by the exposition above.
	for _, f := range families {
		found := false
		for k := range s {
			if family(strings.SplitN(k, "{", 2)[0]) == f {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s not covered", f)
		}
	}
}

func TestScrapeDiff(t *testing.T) {
	before, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(strings.ReplaceAll(exposition,
		"keyed_window_rotations_total 300", "keyed_window_rotations_total 321")))
	if err != nil {
		t.Fatal(err)
	}
	if d := diff(before, after, "keyed_window_rotations_total"); d != 21 {
		t.Errorf("rotation delta = %v, want 21", d)
	}
	if d := diff(scrape{}, after, "cluster_view_rebuilds_total"); d != 10 {
		t.Errorf("delta from an empty scrape = %v, want 10", d)
	}
}

func TestParseScrapeRejectsMalformed(t *testing.T) {
	if _, err := parseScrape(strings.NewReader("sketch_view_rebuilds_total seven\n")); err == nil {
		t.Error("malformed value of a listed family parsed")
	}
	if _, err := parseScrape(strings.NewReader("unlisted_family seven\n")); err != nil {
		t.Errorf("malformed unlisted family rejected: %v", err)
	}
}
