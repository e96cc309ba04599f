package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// The daemon's durable store: one file per live monitor
// (mon-<n>.emon — the full serving bundle, self-contained), one per trained
// model (model-<keyhash>.emod — basis + energy + floorplan, no placement),
// and one index (store.index) summarizing every monitor record.
//
// The index is what makes the store scale past the resident set: boot reads
// it in one file open and registers a paged-out stub per entry; the full
// record is loaded ("paged in") on the monitor's first touch and dropped
// again under -max-monitors pressure. Warm start is therefore
// O(resident + one index read), not O(corpus) — a million records cost a
// million file reads only if all million are actually served. Records that
// the index does not cover (a pre-index store, a crash between record write
// and index write, a corrupt index) are reconciled by a directory scan at
// boot: each such record is validated with a full read, registered
// resident, and the index is rewritten — the rebuild-from-scan fallback.
// Losing the index costs one O(corpus) boot, never data.
const (
	monitorSuffix = ".emon"
	modelSuffix   = ".emod"
	indexName     = "store.index"
)

// lockPoll is how often blocked lock acquisitions re-check the lockfile.
const lockPoll = 25 * time.Millisecond

// openStore validates and remembers the persistence directory.
func (s *server) openStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store dir: %w", err)
	}
	s.storeDir = dir
	return nil
}

// keyHash names a model file for a training key. The key is hashed over its
// canonical JSON so the filename stays filesystem-safe however hostile the
// workload string is; the full key is stored in the record's metadata and
// verified on load, so a hash collision (or a renamed file) cannot smuggle
// the wrong model in.
func keyHash(key trainKey) string {
	blob, err := json.Marshal(key)
	if err != nil {
		// trainKey is a flat struct of strings and ints; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

func (s *server) monitorPath(id string) string {
	return filepath.Join(s.storeDir, id+monitorSuffix)
}

func (s *server) modelPath(key trainKey) string {
	return filepath.Join(s.storeDir, "model-"+keyHash(key)+modelSuffix)
}

func (s *server) indexPath() string {
	return filepath.Join(s.storeDir, indexName)
}

// loadRecord is the single funnel every record read goes through, so the
// daemon can account for its file opens — the warm-boot acceptance test
// asserts O(resident + one index read) opens through this counter.
func (s *server) loadRecord(path string) (*store.Record, error) {
	s.fileOpens.Add(1)
	return store.LoadFile(path)
}

// keyFromMeta derives the train key of a record's metadata, and the
// workload specs its ensemble is generated from: create keys the model
// cache with it and every record load checks it, so the two cannot
// disagree about what a key means. The workload part of the key is the
// comma-joined scenario names plus, for an inline spec, its canonical JSON.
// The retired meta.Solver field is ignored, so records written with it load
// under the same key as records written without it.
func keyFromMeta(meta store.Meta) (trainKey, []*workload.Spec, error) {
	var specs []*workload.Spec
	var parts []string
	for _, name := range meta.Workloads {
		spec, err := workload.Parse(name)
		if err != nil {
			return trainKey{}, nil, err
		}
		specs = append(specs, spec)
		parts = append(parts, spec.Name)
	}
	if len(meta.WorkloadSpec) > 0 {
		spec, err := workload.Decode(meta.WorkloadSpec)
		if err != nil {
			return trainKey{}, nil, err
		}
		specs = append(specs, spec)
		// Canonical JSON (struct field order), not the client's raw bytes,
		// so formatting differences alias to one cache entry.
		canon, err := json.Marshal(spec)
		if err != nil {
			return trainKey{}, nil, err
		}
		parts = append(parts, "inline:"+string(canon))
	}
	return trainKey{
		Floorplan: meta.Floorplan,
		Cores:     meta.Cores, Caches: meta.Caches, MeshW: meta.MeshW, MeshH: meta.MeshH,
		W: meta.GridW, H: meta.GridH,
		Snapshots: meta.Snapshots, Seed: meta.Seed, KMax: meta.KMax,
		Workload: strings.Join(parts, ","),
	}, specs, nil
}

// saveRecord writes one record and counts the save. A failure is counted,
// logged and returned.
func (s *server) saveRecord(path string, rec *store.Record) error {
	if err := store.SaveFile(path, rec); err != nil {
		s.metrics.storeFailures.Add(1)
		s.logf("persist record", "path", path, "err", err)
		return err
	}
	s.metrics.storeSaves.Add(1)
	return nil
}

// persistModel writes entry's trained model under its key. Best-effort: a
// failure is counted and logged, never surfaced to the client — the model
// still serves from memory.
func (s *server) persistModel(key trainKey, entry *modelEntry, meta store.Meta) {
	if s.storeDir != "" {
		_ = s.saveRecord(s.modelPath(key), &store.Record{
			Meta: meta, Basis: entry.model.Basis, Floorplan: entry.fp, Energy: entry.model.Energy})
	}
}

// persistMonitor writes a live monitor's full serving bundle — including
// the drift calibration and adaptation lineage when the monitor is
// calibrated — and indexes it. A failed write is returned: create refuses
// the monitor, a hot-swap keeps serving the generation it already
// acknowledged. Everything comes from rs, not the model cache: an adapted
// generation's basis is its own.
func (s *server) persistMonitor(e *monitorEntry, rs *residentState) error {
	if s.storeDir == "" {
		return nil
	}
	rec := &store.Record{Meta: rs.meta, Floorplan: rs.fp, Energy: rs.model.Energy}
	rec.SetMonitor(rs.mon.Reconstructor())
	if rs.drift != nil {
		rec.Drift = &store.DriftInfo{Calibration: rs.drift.cal,
			ParentKey: rs.parentKey, Generation: rs.generation, OrigSensors: rs.origSensors}
	}
	if err := s.saveRecord(s.monitorPath(e.id), rec); err != nil {
		return err
	}
	s.updateIndex(&e.desc, "")
	return nil
}

// loadModelRecord tries to satisfy a model-cache miss from disk. It returns
// ok=false (never an error the client sees) when there is no usable record:
// the caller falls back to training.
func (s *server) loadModelRecord(key trainKey) (*core.Model, *floorplan.Floorplan, bool) {
	if s.storeDir == "" {
		return nil, nil, false
	}
	path := s.modelPath(key)
	rec, err := s.loadRecord(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.metrics.storeFailures.Add(1)
			s.logf("load model record", "path", path, "err", err)
		}
		return nil, nil, false
	}
	gotKey, _, err := keyFromMeta(rec.Meta)
	if err != nil || gotKey != key {
		// Hash collision, renamed file or tampering: the record describes a
		// different training run — never serve it for this key.
		s.metrics.storeFailures.Add(1)
		s.logf("load model record", "path", path, "err", fmt.Errorf("key mismatch (cross-configuration record)"))
		return nil, nil, false
	}
	if rec.Floorplan == nil || rec.Energy == nil {
		s.metrics.storeFailures.Add(1)
		s.logf("load model record", "path", path, "err", fmt.Errorf("record missing floorplan or energy"))
		return nil, nil, false
	}
	return &core.Model{Basis: rec.Basis, Energy: rec.Energy, Grid: rec.Basis.Grid}, rec.Floorplan, true
}

// trainLock serializes training for key across replicas sharing the store.
// It returns a release func when this replica holds the lock (it should
// train), or nil when the peer holding it finished (its model record is on
// disk — reload instead) or the lock is unusable (train unlocked; worst
// case is one duplicate training, never corruption, since model writes are
// atomic and idempotent for a given key). Stale locks from killed replicas
// are stolen after -lock-stale.
func (s *server) trainLock(key trainKey) func() {
	lockPath := s.modelPath(key) + ".lock"
	waited := false
	for {
		ok, err := tryLockFile(lockPath)
		if err != nil {
			s.logf("train lock", "path", lockPath, "err", err)
			return nil
		}
		if ok {
			return func() { os.Remove(lockPath) }
		}
		if _, err := os.Stat(s.modelPath(key)); err == nil {
			return nil // the peer finished; its record is ready to load
		}
		if !waited {
			waited = true
			s.metrics.lockWaits.Add(1)
		}
		if stealIfStale(lockPath, s.lockStale) {
			s.metrics.lockSteals.Add(1)
			continue
		}
		time.Sleep(lockPoll)
	}
}

// owns reports whether this replica serves id. Unsharded daemons own
// everything.
func (s *server) owns(id string) bool {
	return s.shardN < 2 || s.ring.owner(id) == s.shardIdx
}

// warmStart registers every monitor in the store directory. Indexed records
// become paged-out stubs — no file open until first touch; records the
// index does not cover are validated with a full read (a corrupt or
// incompatible file is logged and skipped — one damaged record must not
// take the whole store down) and registered resident. loaded counts
// registered monitors owned by this replica, skipped counts damaged
// records.
func (s *server) warmStart() (loaded, skipped int) {
	entries, err := os.ReadDir(s.storeDir)
	if err != nil {
		s.logf("warm start", "err", err)
		return 0, 0
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), monitorSuffix) {
			onDisk[e.Name()] = true
		}
	}
	idx, err := store.LoadIndexFile(s.indexPath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// First boot (or a pre-index store): nothing to page from, fall
			// through to the scan.
			idx = nil
		} else {
			// Corrupt or truncated index: rebuild from scan — logged, never
			// fatal. One open was spent discovering this.
			s.fileOpens.Add(1)
			s.metrics.indexRebuilds.Add(1)
			s.logf("store index unreadable; rebuilding from scan", "path", s.indexPath(), "err", err)
			idx = nil
		}
	} else {
		s.fileOpens.Add(1)
	}

	dirty := idx == nil && len(onDisk) > 0
	covered := make(map[string]bool)
	if idx != nil {
		for _, en := range idx.Entries {
			if !onDisk[en.File] {
				// Index/record disagreement: the record is gone (deleted
				// out-of-band, or a crash between delete and index rewrite).
				// Drop the entry; a paged store must never 404 at page-in for
				// a monitor it could have refused at boot.
				s.logf("warm start: dropping indexed monitor with no record", "id", en.ID, "file", en.File)
				dirty = true
				continue
			}
			covered[en.File] = true
			s.index[en.ID] = en
			s.bumpNextID(en.ID)
			if s.owns(en.ID) {
				s.monitors[en.ID] = &monitorEntry{id: en.ID, desc: en}
				loaded++
			}
		}
	}

	// Reconcile records the index does not cover: the rebuild-from-scan
	// fallback, and the only boot path that opens record files.
	var names []string
	for name := range onDisk {
		if !covered[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.storeDir, name)
		e, err := s.adoptRecord(path, name)
		if err != nil {
			s.metrics.storeFailures.Add(1)
			s.logf("warm start: skipping record", "path", path, "err", err)
			skipped++
			continue
		}
		dirty = true
		if e != nil {
			loaded++
		}
	}
	if dirty {
		s.writeIndex()
	}
	return loaded, skipped
}

// bumpNextID advances the ID allocator past a store-found monitor ID so new
// monitors never collide with reloaded (or other shards') ones.
func (s *server) bumpNextID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "mon-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// adoptRecord fully loads an unindexed record, registers it (resident when
// this replica owns it) and adds it to the in-memory index mirror. It
// returns the entry (nil for an unowned monitor) or the load/validation
// error.
func (s *server) adoptRecord(path, file string) (*monitorEntry, error) {
	rec, err := s.loadRecord(path)
	if err != nil {
		return nil, err
	}
	rs, key, err := buildMonitorState(rec)
	if err != nil {
		return nil, err
	}
	id := rs.meta.MonitorID
	if _, dup := s.index[id]; dup || s.monitors[id] != nil {
		return nil, fmt.Errorf("duplicate monitor id %q in store", id)
	}
	desc := descFor(rs, file, key)
	s.index[id] = desc
	s.bumpNextID(id)
	if !s.owns(id) {
		return nil, nil
	}
	e := &monitorEntry{id: id, desc: desc}
	s.monitors[id] = e
	s.install(e, rs, key)
	return e, nil
}

// buildMonitorState rebuilds the serving state from a decoded record, and
// returns the train key its metadata names.
func buildMonitorState(rec *store.Record) (*residentState, trainKey, error) {
	r, err := rec.RestoreMonitor()
	if err != nil {
		return nil, trainKey{}, err
	}
	if rec.Meta.MonitorID == "" {
		return nil, trainKey{}, fmt.Errorf("record has no monitor id")
	}
	if rec.Floorplan == nil || rec.Energy == nil {
		return nil, trainKey{}, fmt.Errorf("record missing floorplan or energy")
	}
	key, _, err := keyFromMeta(rec.Meta)
	if err != nil {
		return nil, trainKey{}, fmt.Errorf("reconstructing train key: %w", err)
	}
	rec.Meta.Solver = "" // retired: a rewritten record drops it
	model := &core.Model{Basis: rec.Basis, Energy: rec.Energy, Grid: rec.Basis.Grid}
	rs, err := newResident(core.RestoredMonitor(r), model, rec.Meta, rec.Floorplan)
	if err != nil {
		return nil, trainKey{}, fmt.Errorf("restoring tracker: %w", err)
	}
	if d := rec.Drift; d != nil {
		// Drift detection resumes exactly where the saving daemon left off:
		// same calibration, same lineage, same surviving-sensor compaction.
		if rs.drift, err = newDriftState(d.Calibration, model, key.Snapshots); err != nil {
			return nil, trainKey{}, fmt.Errorf("restoring drift detector: %w", err)
		}
		rs.generation, rs.parentKey = d.Generation, d.ParentKey
		if len(d.OrigSensors) > 0 {
			rs.setOrigSensors(d.OrigSensors)
		}
	}
	return rs, key, nil
}

// descFor is a monitor's index entry: everything listing and routing read
// without paging the record in. Its m is the client-facing width, which a
// sensor exclusion leaves unchanged.
func descFor(rs *residentState, file string, key trainKey) store.IndexEntry {
	return store.IndexEntry{ID: rs.meta.MonitorID, File: file, TrainKey: keyHash(key),
		Floorplan: rs.meta.Floorplan, K: rs.mon.K(), M: rs.clientWidth(),
		GridW: rs.meta.GridW, GridH: rs.meta.GridH, Tracking: rs.kf != nil}
}

// install publishes the serving state read from e's record: the one tail
// of page-in and the boot scan. The state is published before e joins the
// resident set, so that an eviction can never drop it unregistered, and the
// load is counted. A generation-0 record also seeds the model cache, so a
// later create with its key places sensors without retraining; an adapted
// generation is skipped, because its basis has diverged from what the key
// means and would hand that create the wrong subspace. Callers must not
// hold s.mu.
func (s *server) install(e *monitorEntry, rs *residentState, key trainKey) {
	e.res.Store(rs)
	e.lastUse.Store(time.Now().UnixNano())
	s.registerResident(e)
	if rs.generation == 0 {
		s.mu.Lock()
		if _, ok := s.models[key]; !ok && len(s.models) < s.maxModels {
			entry := &modelEntry{model: rs.model, fp: rs.fp}
			entry.once.Do(func() {})
			entry.ready.Store(true)
			s.models[key] = entry
		}
		s.mu.Unlock()
	}
	s.metrics.monitorsLoaded.Add(1)
}

// touchNanos is a request's LRU stamp in unix nanoseconds: its arrival
// time, which ServeHTTP read into the trace, or a clock read for an
// untraced request.
func touchNanos(tr *obs.Trace) int64 {
	if tr != nil {
		return tr.Wall.UnixNano()
	}
	return time.Now().UnixNano()
}

// resident returns e's serving state, paging the record in on first touch.
// The fast path is one atomic load (and records no page-in span); the slow
// path is single-flight per entry under e.mu, and its trace span includes
// any wait behind a concurrent page-in — that wait is latency the request
// actually spent on paging. A missing record file (index/record
// disagreement) surfaces as a typed *store.Error wrapping fs.ErrNotExist.
// A hit stamps the LRU with the request's arrival time (touchNanos).
func (s *server) resident(e *monitorEntry, tr *obs.Trace) (*residentState, error) {
	if rs := e.res.Load(); rs != nil {
		e.lastUse.Store(touchNanos(tr))
		return rs, nil
	}
	defer tr.Mark(obs.StagePageIn)
	e.mu.Lock()
	defer e.mu.Unlock()
	if rs := e.res.Load(); rs != nil {
		e.lastUse.Store(touchNanos(tr))
		return rs, nil
	}
	if s.storeDir == "" || e.desc.File == "" {
		// Not store-backed: nothing to page from. Only reachable if state
		// tracking breaks, so fail loudly rather than serve garbage.
		return nil, fmt.Errorf("monitor %s has no resident state and no record", e.id)
	}
	path := filepath.Join(s.storeDir, e.desc.File)
	rec, err := s.loadRecord(path)
	if err != nil {
		s.metrics.storeFailures.Add(1)
		s.logf("page in", "id", e.id, "path", path, "err", err)
		return nil, err
	}
	if rec.Meta.MonitorID != e.id {
		// The index named a file that holds someone else's record (renamed
		// out-of-band): refuse, like the model loader's key check.
		s.metrics.storeFailures.Add(1)
		err := &store.Error{Kind: store.KindInvalid,
			Detail: fmt.Sprintf("record %s holds monitor %q, index says %q", path, rec.Meta.MonitorID, e.id)}
		s.logf("page in", "id", e.id, "path", path, "err", err)
		return nil, err
	}
	rs, key, err := buildMonitorState(rec)
	if err != nil {
		s.metrics.storeFailures.Add(1)
		s.logf("page in", "id", e.id, "path", path, "err", err)
		if _, ok := err.(*store.Error); !ok {
			err = &store.Error{Kind: store.KindInvalid, Detail: err.Error()}
		}
		return nil, err
	}
	s.install(e, rs, key)
	return rs, nil
}

// registerResident adds e to the resident set, evicting the
// least-recently-used resident monitor when -max-monitors is exceeded.
// Eviction drops only the rebuildable serving state — the stub (and the
// record on disk) stay, so the monitor pages back in on its next touch;
// requests already holding the evicted state finish safely on it. Callers
// must not hold s.mu.
func (s *server) registerResident(e *monitorEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.residents[e.id] = e
	if s.maxMonitors <= 0 {
		return
	}
	for len(s.residents) > s.maxMonitors {
		var victim *monitorEntry
		for _, cand := range s.residents {
			if cand == e || cand.desc.File == "" {
				continue // never evict the entry being paged in, nor store-less monitors
			}
			if victim == nil || cand.lastUse.Load() < victim.lastUse.Load() {
				victim = cand
			}
		}
		if victim == nil {
			return
		}
		victim.res.Store(nil)
		delete(s.residents, victim.id)
		s.metrics.monitorsEvicted.Add(1)
	}
}

// updateIndex upserts (or removes, when removeID is set) one entry in the
// index mirror and rewrites the index file. Best-effort: index damage only
// ever costs a rebuild-from-scan at the next boot.
func (s *server) updateIndex(upsert *store.IndexEntry, removeID string) {
	if s.storeDir == "" {
		return
	}
	s.mu.Lock()
	if upsert != nil {
		s.index[upsert.ID] = *upsert
	}
	if removeID != "" {
		delete(s.index, removeID)
	}
	s.mu.Unlock()
	s.writeIndex()
}

// writeIndex persists the index mirror. Sharded replicas serialize under
// the index lockfile and read-merge-write: this replica is the authority
// for the monitors it owns, the on-disk index is the authority for everyone
// else's — so concurrent replicas converge instead of clobbering each
// other.
func (s *server) writeIndex() {
	if s.storeDir == "" {
		return
	}
	if s.shardN > 1 {
		release, err := lockFile(s.indexPath()+".lock", s.lockStale, lockPoll,
			func() { s.metrics.lockSteals.Add(1) })
		if err != nil {
			s.metrics.storeFailures.Add(1)
			s.logf("index lock", "err", err)
			return
		}
		defer release()
	}
	s.mu.Lock()
	merged := make(map[string]store.IndexEntry, len(s.index))
	for id, en := range s.index {
		merged[id] = en
	}
	s.mu.Unlock()
	if s.shardN > 1 {
		// Under the lock, other shards' entries on disk are fresher than our
		// mirror: overlay them, and drop unowned mirror entries the disk no
		// longer has (their owner deleted them).
		for id := range merged {
			if !s.owns(id) {
				delete(merged, id)
			}
		}
		if disk, err := store.LoadIndexFile(s.indexPath()); err == nil {
			for _, en := range disk.Entries {
				if !s.owns(en.ID) {
					merged[en.ID] = en
				}
			}
		}
	}
	idx := &store.Index{Entries: make([]store.IndexEntry, 0, len(merged))}
	for _, en := range merged {
		idx.Entries = append(idx.Entries, en)
	}
	if err := store.SaveIndexFile(s.indexPath(), idx); err != nil {
		s.metrics.storeFailures.Add(1)
		s.logf("write index", "err", err)
		return
	}
	s.mu.Lock()
	s.index = merged
	s.mu.Unlock()
}

// removeMonitorFile deletes a retired monitor's record and index entry.
func (s *server) removeMonitorFile(id string) {
	if s.storeDir == "" {
		return
	}
	if err := os.Remove(s.monitorPath(id)); err != nil && !os.IsNotExist(err) {
		s.metrics.storeFailures.Add(1)
		s.logf("remove monitor record", "id", id, "err", err)
	}
	s.updateIndex(nil, id)
}

// evictLocked drops one ready model from the in-memory cache to make room,
// preferring the least-recently used. It reports false when nothing is
// evictable (store-less daemon, or every entry still mid-training). Callers
// hold s.mu. Eviction is safe because (a) trained models are persisted at
// training time, so the dropped state is already on disk, and (b) live
// monitors hold direct references to everything they serve with — an
// evicted model only costs a future create a disk load.
func (s *server) evictLocked() bool {
	if s.storeDir == "" {
		return false
	}
	var victimKey trainKey
	var victim *modelEntry
	for key, entry := range s.models {
		if !entry.ready.Load() {
			continue
		}
		if victim == nil || entry.lastUse.Load() < victim.lastUse.Load() {
			victimKey, victim = key, entry
		}
	}
	if victim == nil {
		return false
	}
	delete(s.models, victimKey)
	s.metrics.modelsEvicted.Add(1)
	return true
}
