// Command aggquery is a miniature end-to-end aggregation engine: it reads
// a CSV of key[,value] records and executes one of the paper's queries
// (Table 1) with a selectable backend.
//
// Usage:
//
//	aggquery -file sales.csv -query q1 -backend Hash_LP
//	aggquery -file grades.csv -query q3 -backend Spreadsort -limit 20
//	aggquery -file sales.csv -query q7 -backend Btree -lo 500 -hi 1000
//
// Queries: q1 (vector COUNT), q2 (vector AVG), q3 (vector MEDIAN),
// q4 (scalar COUNT), q5 (scalar AVG), q6 (scalar MEDIAN), q7 (vector
// COUNT with a key-range condition); plus the generalized vector
// aggregates sum, min, max, mode, and quantile (with -q).
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"memagg"
)

func main() {
	var (
		file    = flag.String("file", "", "input CSV: one key[,value] per line (required; '-' for stdin)")
		query   = flag.String("query", "q1", "q1..q7, sum, min, max, mode, quantile")
		qv      = flag.Float64("q", 0.5, "quantile for -query quantile (0..1)")
		backend = flag.String("backend", "Hash_LP", "algorithm (see -backends)")
		lo      = flag.Uint64("lo", 0, "q7 lower key bound (inclusive)")
		hi      = flag.Uint64("hi", 0, "q7 upper key bound (inclusive)")
		threads = flag.Int("threads", 0, "threads for concurrent backends (0 = GOMAXPROCS)")
		limit   = flag.Int("limit", 0, "print at most this many result rows (0 = all)")
		listBk  = flag.Bool("backends", false, "list backends and exit")
		strMode = flag.Bool("strings", false, "treat keys as strings (backends: see -backends with -strings)")
		prefix  = flag.String("prefix", "", "string mode: key prefix filter for -query q7")
	)
	flag.Parse()

	if *listBk {
		if *strMode {
			for _, b := range memagg.StringBackends() {
				fmt.Println(b)
			}
			return
		}
		for _, b := range memagg.Backends() {
			fmt.Println(b)
		}
		return
	}
	if *file == "" {
		fatalf("-file is required (use '-' for stdin)")
	}

	if *strMode {
		runStringMode(*file, *query, *backend, *prefix, *limit)
		return
	}

	keys, vals, err := readCSV(*file)
	if err != nil {
		fatalf("%v", err)
	}
	if len(keys) == 0 {
		fatalf("no records in %s", *file)
	}

	a, err := memagg.New(memagg.Backend(*backend), memagg.Options{Threads: *threads})
	if err != nil {
		fatalf("%v", err)
	}

	switch strings.ToLower(*query) {
	case "q1":
		printRows(a.CountByKey(keys), "count", *limit, countRow)
	case "q2":
		printRows(a.AvgByKey(keys, vals), "value", *limit, valueRow)
	case "q3":
		printRows(a.MedianByKey(keys, vals), "value", *limit, valueRow)
	case "q4":
		fmt.Printf("count\t%d\n", a.Count(keys))
	case "q5":
		fmt.Printf("avg\t%g\n", a.Avg(vals))
	case "q6":
		m, err := a.Median(keys)
		if err != nil {
			fatalf("q6 with %s: %v", *backend, err)
		}
		fmt.Printf("median\t%g\n", m)
	case "q7":
		rows, err := a.CountRange(keys, *lo, *hi)
		if err != nil {
			fatalf("q7 with %s: %v", *backend, err)
		}
		printRows(rows, "count", *limit, countRow)
	case "sum":
		printRows(a.SumByKey(keys, vals), "value", *limit, statRow)
	case "min":
		printRows(a.MinByKey(keys, vals), "value", *limit, statRow)
	case "max":
		printRows(a.MaxByKey(keys, vals), "value", *limit, statRow)
	case "mode":
		printRows(a.ModeByKey(keys, vals), "value", *limit, valueRow)
	case "quantile":
		printRows(a.QuantileByKey(keys, vals, *qv), "value", *limit, valueRow)
	default:
		fatalf("unknown query %q", *query)
	}
}

// runStringMode executes the string-keyed queries over a CSV whose key
// column is arbitrary text.
func runStringMode(file, query, backend, prefix string, limit int) {
	keys, vals, err := readStringCSV(file)
	if err != nil {
		fatalf("%v", err)
	}
	if len(keys) == 0 {
		fatalf("no records in %s", file)
	}
	bk := memagg.StringBackend(backend)
	if backend == "Hash_LP" { // default numeric backend: map to string default
		bk = memagg.StrHashLP
	}
	a, err := memagg.NewStrings(bk)
	if err != nil {
		fatalf("%v", err)
	}
	switch strings.ToLower(query) {
	case "q1":
		printRows(a.CountByKey(keys), "count", limit, strCountRow)
	case "q2":
		printRows(a.AvgByKey(keys, vals), "value", limit, strValueRow)
	case "q3":
		printRows(a.MedianByKey(keys, vals), "value", limit, strValueRow)
	case "q6":
		m, err := a.MedianKey(keys)
		if err != nil {
			fatalf("q6 with %s: %v", bk, err)
		}
		fmt.Printf("median_key\t%s\n", m)
	case "q7":
		rows, err := a.CountByPrefix(keys, prefix)
		if err != nil {
			fatalf("q7 with %s: %v", bk, err)
		}
		printRows(rows, "count", limit, strCountRow)
	default:
		fatalf("string mode supports q1, q2, q3, q6, q7 (got %q)", query)
	}
}

// readStringCSV parses key[,value] lines with a text key column.
func readStringCSV(path string) (keys []string, vals []uint64, err error) {
	var f *os.File
	if path == "-" {
		f = os.Stdin
	} else {
		f, err = os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		keyStr, valStr, hasVal := strings.Cut(line, ",")
		var v uint64
		if hasVal {
			v, err = strconv.ParseUint(strings.TrimSpace(valStr), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: bad value %q", path, valStr)
			}
		}
		keys = append(keys, keyStr)
		vals = append(vals, v)
	}
	return keys, vals, sc.Err()
}

// readCSV parses key[,value] lines; a single non-numeric header line is
// tolerated and skipped.
func readCSV(path string) (keys, vals []uint64, err error) {
	var f *os.File
	if path == "-" {
		f = os.Stdin
	} else {
		f, err = os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		keyStr, valStr, hasVal := strings.Cut(line, ",")
		k, kerr := strconv.ParseUint(strings.TrimSpace(keyStr), 10, 64)
		if kerr != nil {
			if lineNo == 1 {
				continue // header
			}
			return nil, nil, fmt.Errorf("%s:%d: bad key %q", path, lineNo, keyStr)
		}
		var v uint64
		if hasVal {
			v, err = strconv.ParseUint(strings.TrimSpace(valStr), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: bad value %q", path, lineNo, valStr)
			}
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, sc.Err()
}

// printRows prints rows in ascending key order under a "key\t<column>"
// header, stopping after limit rows (0 = all). split returns one row's key
// and aggregate, printed in their default formats (%d, %s, %g).
func printRows[R any, K cmp.Ordered, V any](rows []R, column string, limit int, split func(R) (K, V)) {
	slices.SortFunc(rows, func(a, b R) int {
		ka, _ := split(a)
		kb, _ := split(b)
		return cmp.Compare(ka, kb)
	})
	fmt.Printf("key\t%s\n", column)
	for i, r := range rows {
		if limit > 0 && i >= limit {
			fmt.Printf("... (%d more rows)\n", len(rows)-limit)
			return
		}
		k, v := split(r)
		fmt.Printf("%v\t%v\n", k, v)
	}
}

func countRow(r memagg.GroupCount) (uint64, uint64)           { return r.Key, r.Count }
func valueRow(r memagg.GroupValue) (uint64, float64)          { return r.Key, r.Value }
func statRow(r memagg.GroupStat) (uint64, uint64)             { return r.Key, r.Value }
func strCountRow(r memagg.StringGroupCount) (string, uint64)  { return r.Key, r.Count }
func strValueRow(r memagg.StringGroupValue) (string, float64) { return r.Key, r.Value }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aggquery: "+format+"\n", args...)
	os.Exit(1)
}
