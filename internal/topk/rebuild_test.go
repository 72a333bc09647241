package topk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tiedWeight draws a topic weight from a small set, so lists are full
// of ties and zero runs, or (one time in four) a continuous value.
func tiedWeight(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return rng.Float64()
	}
	return []float64{0, 0, 0.125, 0.25, 0.5}[rng.Intn(5)]
}

func tiedModel(rng *rand.Rand, k, v int) *fakeTopicModel {
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	for z := 0; z < k; z++ {
		row := make([]float64, v)
		for i := range row {
			row[i] = tiedWeight(rng)
		}
		f.topics = append(f.topics, row)
	}
	return f
}

// nextGeneration derives the next model the way the streaming fold-in
// does, plus the changes it never makes, so every branch of
// BuildIndexFrom is exercised: new items with zero or non-zero weight,
// one changed topic (a weight, or a +0 turned -0), an added or a
// dropped topic.
func nextGeneration(rng *rand.Rand, f *fakeTopicModel) *fakeTopicModel {
	grow := rng.Intn(4)
	zeroTail := rng.Intn(2) == 0
	next := &fakeTopicModel{queries: f.queries}
	for _, row := range f.topics {
		out := append([]float64(nil), row...)
		for i := 0; i < grow; i++ {
			w := 0.0
			if !zeroTail {
				w = tiedWeight(rng)
			}
			out = append(out, w)
		}
		next.topics = append(next.topics, out)
	}
	v := len(next.topics[0])
	switch rng.Intn(6) {
	case 0: // one changed topic
		row := next.topics[rng.Intn(len(next.topics))]
		item := rng.Intn(v)
		if row[item] == 0 && rng.Intn(2) == 0 {
			row[item] = math.Copysign(0, -1)
		} else {
			row[item] += 0.0625
		}
	case 1: // an added topic, as ITCAM opening an interval
		row := make([]float64, v)
		for i := range row {
			row[i] = tiedWeight(rng)
		}
		next.topics = append(next.topics, row)
	case 2: // fewer topics
		if len(next.topics) > 1 {
			next.topics = next.topics[:len(next.topics)-1]
		}
	}
	return next
}

// requireSameIndex compares two indexes by content, not by the answers
// they give: every list entry and every table cell must be bit-equal.
func requireSameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.numTopics != want.numTopics || got.numItems != want.numItems || got.itemLo != want.itemLo ||
		math.Float64bits(got.screenScale) != math.Float64bits(want.screenScale) ||
		math.Float64bits(got.screenEps) != math.Float64bits(want.screenEps) {
		t.Fatalf("%s: shape (K=%d V=%d lo=%d), want (K=%d V=%d lo=%d)", label,
			got.numTopics, got.numItems, got.itemLo, want.numTopics, want.numItems, want.itemLo)
	}
	for z := range want.lists {
		if len(got.lists[z]) != len(want.lists[z]) {
			t.Fatalf("%s: topic %d list has %d entries, want %d", label, z, len(got.lists[z]), len(want.lists[z]))
		}
		for i, e := range want.lists[z] {
			g := got.lists[z][i]
			if g.item != e.item || math.Float64bits(g.weight) != math.Float64bits(e.weight) {
				t.Fatalf("%s: topic %d entry %d = %+v, want %+v", label, z, i, g, e)
			}
		}
	}
	if len(got.byItem) != len(want.byItem) || len(got.byItem32) != len(want.byItem32) {
		t.Fatalf("%s: tables have %d/%d cells, want %d/%d", label,
			len(got.byItem), len(got.byItem32), len(want.byItem), len(want.byItem32))
	}
	for i, x := range want.byItem {
		if math.Float64bits(got.byItem[i]) != math.Float64bits(x) {
			t.Fatalf("%s: byItem[%d] = %v, want %v", label, i, got.byItem[i], x)
		}
	}
	for i, x := range want.byItem32 {
		if math.Float32bits(got.byItem32[i]) != math.Float32bits(x) {
			t.Fatalf("%s: byItem32[%d] = %v, want %v", label, i, got.byItem32[i], x)
		}
	}
}

// copyIndex deep-copies the content requireSameIndex compares.
func copyIndex(ix *Index) *Index {
	out := *ix
	out.lists = make([][]entry, len(ix.lists))
	for z, l := range ix.lists {
		out.lists[z] = append([]entry(nil), l...)
	}
	out.byItem = append([]float64(nil), ix.byItem...)
	out.byItem32 = append([]float32(nil), ix.byItem32...)
	return &out
}

// Property: over random generation sequences, an index built from the
// previous generation's index equals a fresh BuildIndexRange of the
// same window entry for entry and cell for cell, and building from prev
// never writes prev. Windows cover the whole catalog, a fixed shard
// window, a window that moves or shrinks between generations, and nil
// prevs.
func TestBuildIndexFromMatchesFreshBuild(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := tiedModel(rng, rng.Intn(6)+1, rng.Intn(40)+2)
		shard := rng.Intn(3) == 0
		window := func(v int) (int, int) {
			if !shard {
				return 0, v
			}
			return 1, v / 2
		}
		lo, hi := window(f.NumItems())
		prev := BuildIndexRange(f, lo, hi)
		for gen := 0; gen < 8; gen++ {
			f = nextGeneration(rng, f)
			lo, hi = window(f.NumItems())
			from := prev
			switch rng.Intn(8) {
			case 0:
				from = nil
			case 1: // prev covers another window start
				if lo == 0 {
					from = BuildIndexRange(f, 1, f.NumItems())
				} else {
					from = BuildIndexRange(f, 0, hi)
				}
			case 2: // prev covers more items than the new window
				if hi < f.NumItems() {
					from = BuildIndexRange(f, lo, f.NumItems())
				}
			}
			var before *Index
			if from != nil {
				before = copyIndex(from)
			}
			label := fmt.Sprintf("seed %d gen %d", seed, gen)
			got := BuildIndexFrom(f, lo, hi, from)
			requireSameIndex(t, label, got, BuildIndexRange(f, lo, hi))
			if from != nil {
				requireSameIndex(t, label+" (prev after build)", from, before)
			}
			prev = got
		}
	}
}
