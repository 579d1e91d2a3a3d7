package agg

import "fmt"

// QueryID names one query of the serving vocabulary: the paper's Q1–Q7
// plus the generalized reduce, quantile, and mode. The numeric values are
// an on-disk format (continuous-view DEFS files store them) and must not
// change.
type QueryID int

const (
	QCountByKey  QueryID = iota + 1 // Q1: (key, COUNT(*)) per key
	QAvgByKey                       // Q2: (key, AVG(val)) per key
	QMedianByKey                    // Q3: (key, MEDIAN(val)) per key; holistic
	QCount                          // Q4: COUNT(*) over every row
	QAvg                            // Q5: AVG(val) over every row
	QMedian                         // Q6: MEDIAN over the key column
	QRange                          // Q7: Q1 restricted to Lo <= key <= Hi, ascending
	QReduce                         // (key, Op(val)) per key for a distributive Op
	QQuantile                       // (key, P-quantile of vals) per key; holistic
	QMode                           // (key, most frequent val) per key; holistic
)

// Query is one query over a bag of per-key partials: the id plus its
// parameters (Op for QReduce, P for QQuantile, Lo/Hi for QRange; the rest
// ignore them). It is the one spelling every serving path shares — HTTP
// /v1/query on nodes and routers, view registration, Run — and, being
// comparable, the stream result cache's key.
type Query struct {
	ID QueryID
	Op ReduceOp
	P  float64
	Lo uint64
	Hi uint64
}

// ParseQuery resolves a query name (the /v1/query spellings: q1..q7 and
// their aliases, sum/min/max, quantile, mode) plus its parameters into a
// validated Query.
func ParseQuery(name string, p float64, lo, hi uint64) (Query, error) {
	switch name {
	case "q1", "count_by_key":
		return Query{ID: QCountByKey}, nil
	case "q2", "avg_by_key":
		return Query{ID: QAvgByKey}, nil
	case "q3", "median_by_key":
		return Query{ID: QMedianByKey}, nil
	case "q4", "count":
		return Query{ID: QCount}, nil
	case "q5", "avg":
		return Query{ID: QAvg}, nil
	case "q6", "median":
		return Query{ID: QMedian}, nil
	case "q7", "range":
		return Query{ID: QRange, Lo: lo, Hi: hi}, nil
	case "sum":
		return Query{ID: QReduce, Op: OpSum}, nil
	case "min":
		return Query{ID: QReduce, Op: OpMin}, nil
	case "max":
		return Query{ID: QReduce, Op: OpMax}, nil
	case "quantile":
		q := Query{ID: QQuantile, P: p}
		return q, q.Validate()
	case "mode":
		return Query{ID: QMode}, nil
	default:
		return Query{}, fmt.Errorf("unknown query %q", name)
	}
}

// Validate is the single gate on query parameters: every path that
// accepts a query from outside (node, router, view registration) and Run
// itself go through it. The quantile check is written so NaN fails it.
func (q Query) Validate() error {
	switch q.ID {
	case QCountByKey, QAvgByKey, QMedianByKey, QCount, QAvg, QMedian, QRange, QMode:
		return nil
	case QReduce:
		switch q.Op {
		case OpCount, OpSum, OpMin, OpMax:
			return nil
		}
		return fmt.Errorf("unknown reduce op %d", int(q.Op))
	case QQuantile:
		if !(q.P >= 0 && q.P <= 1) {
			return fmt.Errorf("quantile p must be in [0, 1], got %v", q.P)
		}
		return nil
	default:
		return fmt.Errorf("unknown query id %d", int(q.ID))
	}
}

// Check is Validate plus the holistic gate: a query that consumes value
// multisets over state that does not retain them is ErrUnsupported.
func (q Query) Check(holistic bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.NeedsValues() && !holistic {
		return ErrUnsupported
	}
	return nil
}

// NeedsValues reports whether the query consumes value multisets, which
// only holistic streams (and views on them) retain.
func (q Query) NeedsValues() bool {
	switch q.ID {
	case QMedianByKey, QQuantile, QMode:
		return true
	}
	return false
}

// String returns the canonical query spelling (the primary /v1/query
// name), with parameters where they disambiguate.
func (q Query) String() string {
	switch q.ID {
	case QCountByKey:
		return "q1"
	case QAvgByKey:
		return "q2"
	case QMedianByKey:
		return "q3"
	case QCount:
		return "q4"
	case QAvg:
		return "q5"
	case QMedian:
		return "q6"
	case QRange:
		return fmt.Sprintf("q7[%d,%d]", q.Lo, q.Hi)
	case QReduce:
		switch q.Op {
		case OpSum:
			return "sum"
		case OpMin:
			return "min"
		case OpMax:
			return "max"
		default:
			return "count"
		}
	case QQuantile:
		return fmt.Sprintf("quantile(%g)", q.P)
	case QMode:
		return "mode"
	default:
		return fmt.Sprintf("Query(%d)", int(q.ID))
	}
}
