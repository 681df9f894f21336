package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compare prints, per workload, trace mode and metric, the median and
// interquartile range of two directories of run records and their change.
// It flags, and exits 3 on, records whose hosts differ in CPU model, nproc,
// GOMAXPROCS or Go version: such sets are not comparable.
func compare(dirA, dirB string) int {
	a, hostsA, err := loadRecords(dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, hostsB, err := loadRecords(dirB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	hosts := map[host]bool{}
	for h := range hostsA {
		hosts[h] = true
	}
	for h := range hostsB {
		hosts[h] = true
	}
	code := 0
	if len(hosts) > 1 {
		code = 3
		fmt.Println("HOST MISMATCH: these sets ran on different hosts or settings and are not comparable:")
		for h := range hosts {
			fmt.Printf("  %s | nproc %d | GOMAXPROCS %d | %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
		}
	}
	fmt.Printf("%-44s %12s %7s %12s %7s %8s\n", "workload/trace/metric", "median A", "iqr A", "median B", "iqr B", "change")
	for _, key := range sortedKeys(a) {
		va, vb := a[key], b[key]
		if len(vb) == 0 {
			continue
		}
		ma, mb := median(va), median(vb)
		fmt.Printf("%-44s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%%\n", key,
			ma, 100*(quantile(va, .75)-quantile(va, .25))/ma,
			mb, 100*(quantile(vb, .75)-quantile(vb, .25))/mb, 100*(mb-ma)/ma)
	}
	return code
}

// loadRecords reads every run record in dir into metric samples keyed by
// workload/trace/metric, with the set of hosts they ran on (source aside).
func loadRecords(dir string) (map[string][]float64, map[host]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		return nil, nil, fmt.Errorf("no run records in %s", dir)
	}
	sort.Strings(paths)
	out, hosts := map[string][]float64{}, map[host]bool{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		h := rec.Host
		h.Source = ""
		hosts[h] = true
		for name, m := range rec.Outcome.Metrics {
			key := fmt.Sprintf("%s/%d/%s", rec.Workload, rec.Trace, name)
			out[key] = append(out[key], m.Value)
		}
	}
	return out, hosts, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
