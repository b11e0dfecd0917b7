package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinRatio(t *testing.T) {
	base := Report{Results: []Result{{Name: "build_csr_auto", Scale: "ci", NsOp: 1000}}}
	cur := Report{Results: []Result{{Name: "build_csr_auto", Scale: "ci", NsOp: 1900}}}
	if err := compare(cur, writeReport(t, base), 2.0); err != nil {
		t.Fatalf("1.9x should pass a 2.0x gate: %v", err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := Report{Results: []Result{{Name: "build_csr_auto", Scale: "ci", NsOp: 1000}}}
	cur := Report{Results: []Result{{Name: "build_csr_auto", Scale: "ci", NsOp: 2500}}}
	err := compare(cur, writeReport(t, base), 2.0)
	if err == nil {
		t.Fatal("2.5x regression passed a 2.0x gate")
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCompareSkipsUnmatchedSuites(t *testing.T) {
	// New suites (no baseline row) and retired ones (no current row)
	// must not fail the gate, and scales are matched independently.
	base := Report{Results: []Result{
		{Name: "retired_suite", Scale: "ci", NsOp: 1},
		{Name: "build_csr_auto", Scale: "full", NsOp: 1},
	}}
	cur := Report{Results: []Result{
		{Name: "brand_new_suite", Scale: "ci", NsOp: 999_999},
		{Name: "build_csr_auto", Scale: "ci", NsOp: 999_999},
	}}
	if err := compare(cur, writeReport(t, base), 2.0); err != nil {
		t.Fatalf("unmatched suites must be skipped: %v", err)
	}
}

func TestCompareMissingBaselineFile(t *testing.T) {
	if err := compare(Report{}, filepath.Join(t.TempDir(), "nope.json"), 2.0); err == nil {
		t.Fatal("missing baseline file must error")
	}
}

func TestScaleSizes(t *testing.T) {
	if n, m := scaleSize("ci"); n != 5_000 || m != 50_000 {
		t.Fatalf("ci scale = (%d, %d)", n, m)
	}
	if n, m := scaleSize("full"); n != 100_000 || m != 1_000_000 {
		t.Fatalf("full scale = (%d, %d)", n, m)
	}
}
