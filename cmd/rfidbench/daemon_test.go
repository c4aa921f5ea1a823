package main

import (
	"testing"
	"time"
)

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("1236666311990 98765 4321\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1236666311990*time.Nanosecond {
		t.Errorf("run time = %s, want 1236.666311990s", got)
	}
	for _, bad := range []string{"", "12 34", "x 1 2", "1 2 3 4"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	raw := []byte("Name:\trfidcleand\nState:\tS (sleeping)\nVmPeak:\t 1211944 kB\nVmHWM:\t  167680 kB\nVmRSS:\t  160012 kB\n")
	got, err := parseProcStatus(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != 167680<<10 {
		t.Errorf("VmHWM = %d bytes, want %d", got, 167680<<10)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseProcStatus([]byte(bad)); err == nil {
			t.Errorf("parseProcStatus(%q) succeeded", bad)
		}
	}
}

func TestParseMetricsAndDeltas(t *testing.T) {
	before := parseMetrics([]byte(`# HELP go_gc_runs_total Completed GC cycles.
# TYPE go_gc_runs_total counter
go_gc_runs_total 10
rfidclean_clean_phase_duration_seconds_sum{phase="forward"} 1.5
rfidclean_clean_phase_duration_seconds_sum{phase="backward"} 0.25
rfidclean_request_duration_seconds_bucket{endpoint="clean",le="0.005"} 7 # {request_id="ab12"} 0.004 1700000000.1
not a metric line
`))
	after := parseMetrics([]byte(`go_gc_runs_total 14
rfidclean_clean_phase_duration_seconds_sum{phase="forward"} 2
rfidclean_clean_phase_duration_seconds_sum{phase="backward"} 0.5
rfidclean_clean_phase_duration_seconds_sum{phase="revise"} 0.125
rfidclean_request_duration_seconds_bucket{endpoint="clean",le="0.005"} 9 # {request_id="cd34"} 0.003 1700000001.2
`))
	if got := before[`rfidclean_request_duration_seconds_bucket{endpoint="clean",le="0.005"}`]; got != 7 {
		t.Errorf("exemplar line parsed as %g, want 7", got)
	}
	if len(before) != 4 {
		t.Errorf("parsed %d series from before, want 4: %v", len(before), before)
	}
	for _, tc := range []struct {
		prefix string
		want   float64
	}{
		{"go_gc_runs_total", 4},
		{"rfidclean_clean_phase_duration_seconds_sum", 0.5 + 0.25 + 0.125}, // a new series counts from zero
		{"rfidclean_request_duration_seconds_bucket", 2},
		{"absent", 0},
	} {
		if got := metricsDelta(before, after, tc.prefix); got != tc.want {
			t.Errorf("delta(%s) = %g, want %g", tc.prefix, got, tc.want)
		}
	}
}
