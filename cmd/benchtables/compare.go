package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMeasurementKeys are the per-row fields that carry measurements
// rather than identity: they are what the delta table reports. Every other
// scalar field in a row — name, workload, parallelism, shard count, but also
// derived outputs like sketch_bits and rounds that byte-compatibility pins —
// is part of the row's identity, so a run that silently changed an output
// shows up as a removed+added row pair instead of a quiet timing delta.
var compareMeasurementKeys = map[string]bool{
	"iterations":         true,
	"ns_per_op":          true,
	"allocs_per_op":      true,
	"bytes_per_op":       true,
	"mean_rel_err":       true,
	"speedup_vs_serial":  true,
	"bits_per_vertex":    true,
	"partition_ns":       true,
	"peak_slice_bytes":   true,
	"boundary_cells":     true,
	"ns_per_edge_stream": true,
}

// compareHeaderKeys must match between the two artifacts for a row-by-row
// timing comparison to mean anything.
var compareHeaderKeys = []string{"schema", "gomaxprocs"}

type compareRow struct {
	id     string
	fields map[string]float64
}

// collectCompareRows walks an unmarshalled BENCH_*.json generically and
// returns every object that carries an ns_per_op measurement, keyed by its
// JSON path plus all identity fields. The walk is schema-agnostic so one
// tool covers every artifact family (acd, sketch, shard, speedup, distsim)
// and future ones for free.
func collectCompareRows(v any, path string, out map[string]compareRow) error {
	switch node := v.(type) {
	case map[string]any:
		if _, ok := node["ns_per_op"]; ok {
			id, fields := compareRowIdentity(node, path)
			if prev, dup := out[id]; dup {
				return fmt.Errorf("two rows share the identity %q (fields %v and %v) — cannot pair them across artifacts", id, prev.fields, fields)
			}
			out[id] = compareRow{id: id, fields: fields}
		}
		// Thread this object's own identity fields into the path so nested
		// rows (e.g. curve points under a workload/stage header) stay
		// distinguishable across sibling groups. The root document's fields
		// are the artifact header — checked separately, not row identity.
		ctx := path
		if path != "" {
			ctx, _ = compareRowIdentity(node, path)
		}
		for k, child := range node {
			if err := collectCompareRows(child, ctx+"/"+k, out); err != nil {
				return err
			}
		}
	case []any:
		for _, child := range node {
			if err := collectCompareRows(child, path, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareRowIdentity splits a measurement row into its identity string and
// its numeric measurements.
func compareRowIdentity(row map[string]any, path string) (string, map[string]float64) {
	fields := map[string]float64{}
	idParts := []string{}
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	// Leading keys first so the human-readable part of a row's identity
	// survives column truncation; the rest alphabetical for determinism.
	rank := func(k string) int {
		switch k {
		case "name", "workload":
			return 0
		case "stage":
			return 1
		default:
			return 2
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if ri, rj := rank(keys[i]), rank(keys[j]); ri != rj {
			return ri < rj
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		val := row[k]
		switch tv := val.(type) {
		case float64:
			if compareMeasurementKeys[k] {
				fields[k] = tv
				continue
			}
			idParts = append(idParts, fmt.Sprintf("%s=%v", k, tv))
		case string:
			idParts = append(idParts, fmt.Sprintf("%s=%s", k, tv))
		case bool:
			idParts = append(idParts, fmt.Sprintf("%s=%v", k, tv))
		}
	}
	return path + " " + strings.Join(idParts, " "), fields
}

func loadCompareArtifact(path string) (map[string]any, map[string]compareRow, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	rows := map[string]compareRow{}
	if err := collectCompareRows(doc, "", rows); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("%s: no rows with ns_per_op — not a BENCH_*.json artifact?", path)
	}
	return doc, rows, nil
}

func compareNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// runCompare prints a per-row ns/op and allocs/op delta table between two
// BENCH_*.json artifacts of the same schema, refusing to compare artifacts
// whose schema or gomaxprocs differ (a timing delta across either is
// meaningless). Negative deltas are improvements.
func runCompare(w io.Writer, oldPath, newPath string) error {
	oldDoc, oldRows, err := loadCompareArtifact(oldPath)
	if err != nil {
		return err
	}
	newDoc, newRows, err := loadCompareArtifact(newPath)
	if err != nil {
		return err
	}
	for _, k := range compareHeaderKeys {
		ov, nv := oldDoc[k], newDoc[k]
		if !reflectEqualJSON(ov, nv) {
			return fmt.Errorf("refusing to compare: %s differs (%v vs %v) — rows are only comparable between runs of the same artifact family on the same box", k, ov, nv)
		}
	}
	ids := make([]string, 0, len(oldRows))
	for id := range oldRows {
		if _, ok := newRows[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "comparing %s (old) vs %s (new), schema %v, gomaxprocs %v\n\n", oldPath, newPath, oldDoc["schema"], oldDoc["gomaxprocs"])
	fmt.Fprintf(w, "%-84s %12s %12s %8s %22s\n", "row", "old ns/op", "new ns/op", "Δ", "allocs/op old→new")
	for _, id := range ids {
		o, n := oldRows[id].fields, newRows[id].fields
		oldNs, newNs := o["ns_per_op"], n["ns_per_op"]
		delta := "n/a"
		if oldNs > 0 && newNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(newNs-oldNs)/oldNs)
		}
		allocs := ""
		oa, oOK := o["allocs_per_op"]
		na, nOK := n["allocs_per_op"]
		if oOK && nOK {
			allocs = fmt.Sprintf("%.0f → %.0f", oa, na)
			if d := na - oa; d != 0 {
				allocs += fmt.Sprintf(" (%+.0f)", d)
			}
		}
		fmt.Fprintf(w, "%-84s %12s %12s %8s %22s\n", compareTrim(id, 84), compareNs(oldNs), compareNs(newNs), delta, allocs)
	}
	orphans := func(have, other map[string]compareRow, label string) {
		var missing []string
		for id := range have {
			if _, ok := other[id]; !ok {
				missing = append(missing, id)
			}
		}
		sort.Strings(missing)
		for _, id := range missing {
			fmt.Fprintf(w, "%s only: %s\n", label, compareTrim(id, 120))
		}
	}
	fmt.Fprintln(w)
	orphans(oldRows, newRows, "old")
	orphans(newRows, oldRows, "new")
	fmt.Fprintf(w, "%d paired rows, %d old-only, %d new-only\n", len(ids), len(oldRows)-len(ids), len(newRows)-len(ids))
	if len(ids) == 0 {
		return fmt.Errorf("no pairable rows between %s and %s", oldPath, newPath)
	}
	return nil
}

func compareTrim(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// reflectEqualJSON compares two unmarshalled JSON scalars, treating numeric
// values by value (json.Unmarshal yields float64 for every number).
func reflectEqualJSON(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	}
	return a == b
}
