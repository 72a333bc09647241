//go:build go1.24

package server

// Tests for what a publish reuses (DESIGN.md §15): the index built from
// the serving generation must answer exactly like a brute-force ranking
// of the published bundle, and a retired generation's index must not
// outlive it.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"testing"
	"weak"

	"tcam/internal/cuboid"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/model/itcam"
	"tcam/internal/topk"
)

// makeITCAMBundle is makeBundle for ITCAM, whose topic count grows with
// every interval the stream opens.
func makeITCAMBundle(tb testing.TB, users, items int) *index.Bundle {
	tb.Helper()
	b := cuboid.NewBuilder(users, 3, items)
	for u := 0; u < users; u++ {
		for t := 0; t < 3; t++ {
			b.MustAdd(u, t, (u*2+t)%items, 1)
			b.MustAdd(u, t, (t*4)%items, 1)
		}
	}
	cfg := itcam.DefaultConfig()
	cfg.K1, cfg.MaxIters = 4, 15
	m, _, err := itcam.Train(b.Build(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	boot := makeBundle(tb, users, items)
	return index.NewITCAM(m, boot.Grid, boot.Users, boot.Items)
}

// checkServesBruteForce asks the server for every user's full ranking
// at the live interval. The answer must list the items of
// topk.BruteForce on the published bundle in its order with its scores
// (to 1e-12 relative: ITCAM's bulk scorer sums the topics in another
// order than the index's dot product), and it must be bit-identical to
// the answer of an index built fresh from that bundle.
func checkServesBruteForce(t *testing.T, srv *Server) {
	t.Helper()
	b := srv.snapshot().bundle
	fresh := b.BuildIndex()
	live := b.Grid.Num - 1
	when := b.Grid.Origin + int64(live)*b.Grid.Length
	n := len(b.Items)
	for u, name := range b.Users {
		want, _ := topk.BruteForce(b.Scorer(), u, live, n, nil)
		exact, _ := fresh.Query(b.Scorer(), u, live, n, nil)
		w := serveHTTP(srv, http.MethodGet,
			fmt.Sprintf("/recommend?user=%s&time=%d&k=%d", url.QueryEscape(name), when, n), "")
		if w.Code != http.StatusOK {
			t.Fatalf("/recommend for %s = %d: %s", name, w.Code, w.Body.String())
		}
		var got recommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Interval != live || len(got.Recommendations) != len(want) || len(exact) != len(want) {
			t.Fatalf("%s: interval %d with %d items, want interval %d with %d",
				name, got.Interval, len(got.Recommendations), live, len(want))
		}
		for i, r := range got.Recommendations {
			if r.Item != b.Items[want[i].Item] || math.Abs(r.Score-want[i].Score) > 1e-12*math.Abs(want[i].Score) {
				t.Fatalf("%s rank %d: served (%s, %v), brute force (%s, %v)",
					name, i, r.Item, r.Score, b.Items[want[i].Item], want[i].Score)
			}
			if r.Item != b.Items[exact[i].Item] || math.Float64bits(r.Score) != math.Float64bits(exact[i].Score) {
				t.Fatalf("%s rank %d: served (%s, %v), fresh index (%s, %v)",
					name, i, r.Item, r.Score, b.Items[exact[i].Item], exact[i].Score)
			}
		}
	}
}

// TestPublishesServeBruteForce drives an updater through publishes that
// add users, items and an interval, and checks the served answers of
// every user against brute force after each one. Under ITCAM the
// interval adds a topic and later events change it; under TTCAM every
// topic keeps its weights and only gains the new items.
func TestPublishesServeBruteForce(t *testing.T) {
	for _, kind := range []index.Kind{index.KindTTCAM, index.KindITCAM} {
		t.Run(string(kind), func(t *testing.T) {
			boot := makeBundle(t, 6, 12)
			if kind == index.KindITCAM {
				boot = makeITCAMBundle(t, 6, 12)
			}
			srv, err := New(boot)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			lg, err := ingest.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := UpdaterConfig{Advance: index.DefaultAdvanceConfig()}
			cfg.Advance.FoldIters = 3
			up, err := NewUpdater(srv, lg, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkServesBruteForce(t, srv)
			steps := [][]ingest.Record{
				// A new user rates existing items.
				{{User: "user-late", Item: "item-3", Time: 105, Score: 2}, {User: "user-late", Item: "item-7", Time: 115, Score: 1}},
				// New items, from an existing and a new user.
				{{User: "user-1", Item: "item-new-a", Time: 112, Score: 1}, {User: "user-later", Item: "item-new-b", Time: 118, Score: 3}},
				// An event past the grid opens interval 3.
				{{User: "user-2", Item: "item-5", Time: 131, Score: 2}},
				// More events in the new interval, one on a new item.
				{{User: "user-late", Item: "item-new-c", Time: 133, Score: 1}, {User: "user-0", Item: "item-1", Time: 134, Score: 2}},
			}
			for i, recs := range steps {
				appendEvents(t, dir, recs...)
				if published, err := up.Step(); err != nil || !published {
					t.Fatalf("step %d = (%v, %v), want (true, nil)", i, published, err)
				}
				checkServesBruteForce(t, srv)
			}
			if h := healthOf(t, srv); h.Users != 8 || h.Items != 15 || h.Intervals != 4 {
				t.Fatalf("final health = %+v", h)
			}
		})
	}
}

// TestReloadReleasesRetiredIndex: once a reload retires a generation
// that served queries, its index is garbage at the next collection.
// Nothing process-wide may keep it reachable — in particular no scratch
// pool: a sync.Pool stays registered with the runtime until the second
// collection after its last use, so a pool inside the index or the
// snapshot would pin the retired generation through one more
// collection, stacking dead generations in the live heap when publishes
// come faster than collections.
func TestReloadReleasesRetiredIndex(t *testing.T) {
	srv, b := testServer(t)
	for _, target := range []string{
		"/recommend?user=user-1&time=105&k=3",
		"/recommend?user=user-2&time=115&k=3&exclude=item-1",
	} {
		if w := serveHTTP(srv, http.MethodGet, target, ""); w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, w.Code, w.Body.String())
		}
	}
	retired := weak.Make(srv.snapshot().idx)
	if _, err := srv.Reload(b); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if retired.Value() != nil {
		t.Fatal("retired index still reachable after a collection")
	}
}
