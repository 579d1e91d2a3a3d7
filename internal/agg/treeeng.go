package agg

import (
	"memagg/internal/arena"
	"memagg/internal/art"
	"memagg/internal/btree"
	"memagg/internal/judy"
	"memagg/internal/ttree"
)

// The tree-based engines are table engines (hasheng.go) over an ordered
// tree: the build is the hash engines' (Upsert with early aggregation),
// and ordered iteration makes the scalar-median and range queries
// natively answerable.

// ART returns the adaptive-radix-tree engine ("ART").
func ART() Engine {
	return &tableEngine{
		name:      "ART",
		cat:       TreeBased,
		newCount:  func(int) kvTable[uint64] { return art.New[uint64]() },
		newAvg:    func(int) kvTable[avgState] { return art.New[avgState]() },
		newList:   func(int) kvTable[[]uint64] { return art.New[[]uint64]() },
		newAList:  func(int) kvTable[arena.List] { return art.New[arena.List]() },
		newReduce: func(int) kvTable[reduceState] { return art.New[reduceState]() },
	}
}

// Judy returns the Judy-array engine ("Judy").
func Judy() Engine {
	return &tableEngine{
		name:      "Judy",
		cat:       TreeBased,
		newCount:  func(int) kvTable[uint64] { return judy.New[uint64]() },
		newAvg:    func(int) kvTable[avgState] { return judy.New[avgState]() },
		newList:   func(int) kvTable[[]uint64] { return judy.New[[]uint64]() },
		newAList:  func(int) kvTable[arena.List] { return judy.New[arena.List]() },
		newReduce: func(int) kvTable[reduceState] { return judy.New[reduceState]() },
	}
}

// Btree returns the B+tree engine ("Btree").
func Btree() Engine {
	return &tableEngine{
		name:      "Btree",
		cat:       TreeBased,
		newCount:  func(int) kvTable[uint64] { return btree.New[uint64]() },
		newAvg:    func(int) kvTable[avgState] { return btree.New[avgState]() },
		newList:   func(int) kvTable[[]uint64] { return btree.New[[]uint64]() },
		newAList:  func(int) kvTable[arena.List] { return btree.New[arena.List]() },
		newReduce: func(int) kvTable[reduceState] { return btree.New[reduceState]() },
	}
}

// Ttree returns the T-tree engine ("Ttree"). The paper's microbenchmark
// rules it out of the main experiments; it is provided so that result can
// be reproduced (Figure 3).
func Ttree() Engine {
	return &tableEngine{
		name:      "Ttree",
		cat:       TreeBased,
		newCount:  func(int) kvTable[uint64] { return ttree.New[uint64]() },
		newAvg:    func(int) kvTable[avgState] { return ttree.New[avgState]() },
		newList:   func(int) kvTable[[]uint64] { return ttree.New[[]uint64]() },
		newAList:  func(int) kvTable[arena.List] { return ttree.New[arena.List]() },
		newReduce: func(int) kvTable[reduceState] { return ttree.New[reduceState]() },
	}
}
