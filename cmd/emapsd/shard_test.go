package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// shardedServer builds replica idx of n over dir, as
// `emapsd -store-dir dir -shard idx/n` would.
func shardedServer(t *testing.T, dir string, idx, n int) *server {
	t.Helper()
	srv := durableServer(t, dir)
	srv.shardIdx, srv.shardN, srv.ring = idx, n, newShardRing(n)
	return srv
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		idx  int
		n    int
		fail bool
	}{
		{"", 0, 1, false},
		{"0/1", 0, 1, false},
		{"0/2", 0, 2, false},
		{"1/2", 1, 2, false},
		{"3/4", 3, 4, false},
		{"2/2", 0, 0, true},  // index out of range
		{"-1/2", 0, 0, true}, // negative index
		{"0/0", 0, 0, true},  // zero shards
		{"x/y", 0, 0, true},
		{"1", 0, 0, true},
	} {
		idx, n, err := parseShard(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("parseShard(%q) = %d/%d, want error", tc.in, idx, n)
			}
			continue
		}
		if err != nil || idx != tc.idx || n != tc.n {
			t.Errorf("parseShard(%q) = %d/%d, %v; want %d/%d", tc.in, idx, n, err, tc.idx, tc.n)
		}
	}
}

// TestShardRing pins the three properties routing depends on: ownership is
// a pure function of (id, n) so independent replicas agree with no
// coordination; vnodes spread monitors roughly evenly; and growing the
// shard count moves only a bounded fraction of monitors.
func TestShardRing(t *testing.T) {
	const n, ids = 4, 10_000
	a, b := newShardRing(n), newShardRing(n)
	counts := make([]int, n)
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("mon-%d", i)
		if a.owner(id) != b.owner(id) {
			t.Fatalf("independently built rings disagree on %s", id)
		}
		counts[a.owner(id)]++
	}
	for s, c := range counts {
		if c < ids/n/2 || c > ids*2/n {
			t.Fatalf("shard %d owns %d of %d monitors — vnode spread is broken (%v)", s, c, ids, counts)
		}
	}
	// Consistent hashing: n → n+1 relocates ~1/(n+1) of the corpus, not a
	// full reshuffle.
	grown := newShardRing(n + 1)
	moved := 0
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("mon-%d", i)
		if a.owner(id) != grown.owner(id) {
			moved++
		}
	}
	if moved > ids/2 {
		t.Fatalf("growing %d→%d shards moved %d/%d monitors — expected ~1/%d", n, n+1, moved, ids, n+1)
	}
	// Degenerate rings own everything at shard 0.
	if newShardRing(1).owner("mon-1") != 0 || (*shardRing)(nil).owner("mon-1") != 0 {
		t.Fatal("degenerate ring must own everything at shard 0")
	}
}

// TestShardedReplicas drives two replicas over one shared store: each
// allocates only IDs it owns (so concurrent creates never collide), refuses
// a peer's monitor with 421 wrong_shard, reports its slice at /v1/shard,
// and a restarted replica warm-boots exactly its owned subset.
func TestShardedReplicas(t *testing.T) {
	dir := t.TempDir()
	srv0 := shardedServer(t, dir, 0, 2)
	srv1 := shardedServer(t, dir, 1, 2)
	ts0, ts1 := httptest.NewServer(srv0), httptest.NewServer(srv1)
	defer ts0.Close()
	defer ts1.Close()

	ring := newShardRing(2)
	owned := map[int][]string{}
	for i := 0; i < 3; i++ { // alternate creates across replicas
		for shard, ts := range map[int]*httptest.Server{0: ts0, 1: ts1} {
			cr := createMonitor(t, ts, "")
			if got := ring.owner(cr.ID); got != shard {
				t.Fatalf("replica %d allocated %s, owned by shard %d", shard, cr.ID, got)
			}
			owned[shard] = append(owned[shard], cr.ID)
		}
	}
	seen := map[string]bool{}
	for _, ids := range owned {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("ID %s allocated by both replicas", id)
			}
			seen[id] = true
		}
	}

	// Each replica serves its own monitors and refuses the peer's with 421
	// and the owner's index, so a client-side router can repin.
	for shard, ts := range map[int]*httptest.Server{0: ts0, 1: ts1} {
		for _, id := range owned[shard] {
			if code, b := bodyString(t, ts, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody); code != 200 {
				t.Fatalf("replica %d refused its own monitor %s: %d %s", shard, id, code, b)
			}
		}
		var env errEnvelope
		peer := owned[1-shard][0]
		resp := doJSON(t, ts, http.MethodPost, "/v1/monitors/"+peer+"/estimate", estimateBody, &env)
		if resp.StatusCode != http.StatusMisdirectedRequest || env.Error.Code != "wrong_shard" {
			t.Fatalf("replica %d served peer monitor %s: %d %+v, want 421 wrong_shard", shard, peer, resp.StatusCode, env)
		}
	}
	if srv0.metrics.wrongShard.Load() != 1 || srv1.metrics.wrongShard.Load() != 1 {
		t.Fatalf("wrong_shard counters %d/%d, want 1/1",
			srv0.metrics.wrongShard.Load(), srv1.metrics.wrongShard.Load())
	}

	// /v1/shard exposes the routing info.
	var sh struct {
		Shard    int      `json:"shard"`
		Of       int      `json:"of"`
		Monitors []string `json:"monitors"`
	}
	doJSON(t, ts1, http.MethodGet, "/v1/shard", "", &sh)
	if sh.Shard != 1 || sh.Of != 2 || len(sh.Monitors) != len(owned[1]) {
		t.Fatalf("/v1/shard = %+v, want shard 1/2 with %d monitors", sh, len(owned[1]))
	}

	// A replica restarted on the shared dir picks up exactly its slice —
	// the merged index covers both replicas' monitors.
	re0 := shardedServer(t, dir, 0, 2)
	if loaded, skipped := re0.warmStart(); loaded != len(owned[0]) || skipped != 0 {
		t.Fatalf("restarted shard 0 loaded=%d skipped=%d, want %d/0", loaded, skipped, len(owned[0]))
	}
	tsRe := httptest.NewServer(re0)
	defer tsRe.Close()
	for _, id := range owned[0] {
		if code, b := bodyString(t, tsRe, http.MethodPost, "/v1/monitors/"+id+"/estimate", estimateBody); code != 200 {
			t.Fatalf("restarted shard 0 cannot serve %s: %d %s", id, code, b)
		}
	}
}

// TestLockFileMutualExclusion hammers one lockfile from many goroutines and
// checks at most one holds it at a time.
func TestLockFileMutualExclusion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lock")
	var holders, maxHolders atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				release, err := lockFile(path, time.Minute, time.Millisecond, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if h := holders.Add(1); h > maxHolders.Load() {
					maxHolders.Store(h)
				}
				time.Sleep(100 * time.Microsecond)
				holders.Add(-1)
				release()
			}
		}()
	}
	wg.Wait()
	if maxHolders.Load() != 1 {
		t.Fatalf("%d concurrent lock holders, want 1", maxHolders.Load())
	}
}

// TestTrainLockStealsStale pins lock recovery after a replica dies
// mid-training: the leaked lockfile is stolen once its mtime ages past
// -lock-stale, and the stealing replica proceeds to train.
func TestTrainLockStealsStale(t *testing.T) {
	dir := t.TempDir()
	srv := shardedServer(t, dir, 0, 2)
	ts := httptest.NewServer(srv)
	cr := createMonitor(t, ts, "")
	ts.Close()

	rec, err := store.LoadFile(filepath.Join(dir, cr.ID+monitorSuffix))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := keyFromMeta(rec.Meta)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh lock, model on disk: the peer finished — reload, don't train.
	lockPath := srv.modelPath(key) + ".lock"
	if ok, err := tryLockFile(lockPath); err != nil || !ok {
		t.Fatalf("seed lock: ok=%v err=%v", ok, err)
	}
	if release := srv.trainLock(key); release != nil {
		release()
		t.Fatal("trainLock acquired while a fresh peer lock was held and the model exists")
	}

	// Dead replica: model gone, lockfile leaked and stale. The lock is
	// stolen and training proceeds here.
	if err := os.Remove(srv.modelPath(key)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * srv.lockStale)
	if err := os.Chtimes(lockPath, old, old); err != nil {
		t.Fatal(err)
	}
	release := srv.trainLock(key)
	if release == nil {
		t.Fatal("trainLock did not steal a stale lock")
	}
	if got := srv.metrics.lockSteals.Load(); got != 1 {
		t.Fatalf("lock_steals %d, want 1", got)
	}
	if got := srv.metrics.lockWaits.Load(); got != 1 {
		t.Fatalf("lock_waits %d, want 1", got)
	}
	release()
	if _, err := os.Stat(lockPath); !os.IsNotExist(err) {
		t.Fatalf("release left the lockfile behind: %v", err)
	}

	// A second acquisition on the now-free lock is immediate.
	release = srv.trainLock(key)
	if release == nil {
		t.Fatal("trainLock failed on a free lock")
	}
	release()
}

// TestStealIfStale pins the staleness predicate itself.
func TestStealIfStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.lock")
	if ok, _ := tryLockFile(path); !ok {
		t.Fatal("seed lock failed")
	}
	if stealIfStale(path, time.Minute) {
		t.Fatal("stole a fresh lock")
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if !stealIfStale(path, time.Minute) {
		t.Fatal("did not steal a stale lock")
	}
	if stealIfStale(path, time.Minute) {
		t.Fatal("stole a lock that is already gone")
	}
}
