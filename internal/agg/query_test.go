package agg

import (
	"errors"
	"math"
	"testing"
)

// TestQueryIDsPinned pins the ten QueryID values: continuous-view DEFS
// files store them, so a renumbering would silently re-point every
// persisted view at a different query.
func TestQueryIDsPinned(t *testing.T) {
	pinned := []struct {
		id   QueryID
		want int
	}{
		{QCountByKey, 1}, {QAvgByKey, 2}, {QMedianByKey, 3}, {QCount, 4}, {QAvg, 5},
		{QMedian, 6}, {QRange, 7}, {QReduce, 8}, {QQuantile, 9}, {QMode, 10},
	}
	for _, p := range pinned {
		if int(p.id) != p.want {
			t.Errorf("QueryID %v = %d, want %d (on-disk format)", Query{ID: p.id}, int(p.id), p.want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want Query
		// param marks spellings whose String carries parameters, so it is
		// not itself a parseable name.
		param bool
	}{
		{in: "q1", want: Query{ID: QCountByKey}}, {in: "count_by_key", want: Query{ID: QCountByKey}},
		{in: "q2", want: Query{ID: QAvgByKey}}, {in: "avg_by_key", want: Query{ID: QAvgByKey}},
		{in: "q3", want: Query{ID: QMedianByKey}}, {in: "median_by_key", want: Query{ID: QMedianByKey}},
		{in: "q4", want: Query{ID: QCount}}, {in: "count", want: Query{ID: QCount}},
		{in: "q5", want: Query{ID: QAvg}}, {in: "avg", want: Query{ID: QAvg}},
		{in: "q6", want: Query{ID: QMedian}}, {in: "median", want: Query{ID: QMedian}},
		{in: "q7", want: Query{ID: QRange, Lo: 1, Hi: 2}, param: true},
		{in: "range", want: Query{ID: QRange, Lo: 1, Hi: 2}, param: true},
		{in: "sum", want: Query{ID: QReduce, Op: OpSum}},
		{in: "min", want: Query{ID: QReduce, Op: OpMin}},
		{in: "max", want: Query{ID: QReduce, Op: OpMax}},
		{in: "quantile", want: Query{ID: QQuantile, P: 0.5}, param: true},
		{in: "mode", want: Query{ID: QMode}},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.in, 0.5, 1, 2)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.in, err)
		}
		if q != c.want {
			t.Fatalf("ParseQuery(%q) = %+v, want %+v", c.in, q, c.want)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("ParseQuery(%q) result fails Validate: %v", c.in, err)
		}
		if c.param {
			continue
		}
		// Every spelling round-trips through its canonical name.
		back, err := ParseQuery(q.String(), 0.5, 1, 2)
		if err != nil || back != q {
			t.Fatalf("ParseQuery(%q.String() = %q) = %+v, %v; want %+v", c.in, q.String(), back, err, q)
		}
	}
	if got := (Query{ID: QRange, Lo: 10, Hi: 20}).String(); got != "q7[10,20]" {
		t.Fatalf("q7 String = %q", got)
	}
	if got := (Query{ID: QQuantile, P: 0.9}).String(); got != "quantile(0.9)" {
		t.Fatalf("quantile String = %q", got)
	}
	if _, err := ParseQuery("nope", 0, 0, 0); err == nil {
		t.Fatal("unknown query name parsed")
	}
	if q, _ := ParseQuery("q7", 0, 10, 20); q.Lo != 10 || q.Hi != 20 {
		t.Fatalf("q7 bounds not carried: %+v", q)
	}
}

func TestQueryValidate(t *testing.T) {
	for _, p := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := ParseQuery("quantile", p, 0, 0); err == nil {
			t.Errorf("quantile p=%v parsed", p)
		}
		if err := (Query{ID: QQuantile, P: p}).Validate(); err == nil {
			t.Errorf("quantile p=%v validated", p)
		}
	}
	for _, p := range []float64{0, 0.5, 1} {
		if err := (Query{ID: QQuantile, P: p}).Validate(); err != nil {
			t.Errorf("quantile p=%v: %v", p, err)
		}
	}
	bad := []Query{{}, {ID: QueryID(99)}, {ID: QReduce, Op: ReduceOp(99)}}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("%+v validated", q)
		}
	}
	// Check adds the holistic gate on top of Validate.
	for _, q := range []Query{{ID: QMedianByKey}, {ID: QQuantile, P: 0.5}, {ID: QMode}} {
		if !q.NeedsValues() {
			t.Errorf("%v: NeedsValues = false", q)
		}
		if err := q.Check(false); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%v.Check(false) = %v, want ErrUnsupported", q, err)
		}
		if err := q.Check(true); err != nil {
			t.Errorf("%v.Check(true) = %v", q, err)
		}
	}
	if err := (Query{ID: QCountByKey}).Check(false); err != nil {
		t.Errorf("q1.Check(false) = %v", err)
	}
	// Run is gated the same way and never reaches a kernel with a bad p.
	if _, err := Run(nil, Query{ID: QQuantile, P: math.NaN()}, RunEnv{Holistic: true}); err == nil {
		t.Error("Run accepted quantile p=NaN")
	}
}
