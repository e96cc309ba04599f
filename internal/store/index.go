package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The store index is what makes warm-starting a million-monitor store
// O(resident + one index read) instead of O(corpus): one file beside the
// monitor records summarizing every record well enough to register it,
// route requests to it and list it — without opening it. The daemon reads
// the index at boot, registers a lazy stub per entry, and pages the full
// .emon record in on the monitor's first touch.
//
// The index reuses the EMST envelope idiom with its own magic:
//
//	magic   "EMSI"            4 bytes
//	version uint32 LE         index format version (currently 1)
//	length  uint64 LE         payload byte count
//	payload length bytes
//	crc     uint32 LE         IEEE CRC-32 of the payload
//
// The payload is a uint32 entry count followed by the entries, each a fixed
// field sequence (strings are u32-length-prefixed UTF-8, integers u32 LE):
// id, file, train key, floorplan, K, M, grid W, grid H, flags (bit 0 =
// tracking). Entries are sorted by monitor ID, so encoding is deterministic
// and two replicas writing the same logical index write the same bytes.
//
// The index is advisory, never authoritative: every decode failure (or a
// missing index) downgrades the boot to a directory scan that rebuilds it,
// and an entry that disagrees with its record on disk is detected at
// page-in time. Losing the index costs one O(corpus) boot, never data.

const (
	indexMagic = "EMSI"
	// IndexVersion is the index format version SaveIndex writes.
	IndexVersion = 1
	// minIndexEntry is the smallest encoded entry: four string lengths and
	// five u32 fields. It bounds the entry count a header can claim by the
	// bytes that follow it, before any allocation happens.
	minIndexEntry = 4*4 + 5*4
)

// IndexEntry summarizes one monitor record: everything the daemon needs to
// register, list and route a monitor without reading its record file.
type IndexEntry struct {
	// ID is the monitor id ("mon-42").
	ID string
	// File is the record's filename relative to the store directory.
	File string
	// TrainKey is the hash naming the monitor's model record (the
	// "model-<TrainKey>.emod" file), linking the monitor to the trained
	// model it was placed on.
	TrainKey string
	// Floorplan is the die name ("t1", "athlon", "manycore-256c", ...).
	Floorplan string
	// K and M are the subspace dimension and sensor count.
	K, M int
	// GridW and GridH are the thermal-map grid dimensions.
	GridW, GridH int
	// Tracking records whether the monitor was created with a Kalman
	// tracker.
	Tracking bool
}

// Index is the boot-time summary of a monitor store: one entry per monitor
// record, sorted by ID.
type Index struct {
	Entries []IndexEntry
}

// indexFlagTracking is the tracking bit in an entry's flags word.
const indexFlagTracking = 1 << 0

// EncodeIndex writes idx in the index format. Entries are encoded in ID
// order regardless of their order in idx, so the bytes are a pure function
// of the logical index.
func EncodeIndex(w io.Writer, idx *Index) error {
	entries := append([]IndexEntry(nil), idx.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	var payload bytes.Buffer
	putU32(&payload, uint32(len(entries)))
	for _, e := range entries {
		putString(&payload, e.ID)
		putString(&payload, e.File)
		putString(&payload, e.TrainKey)
		putString(&payload, e.Floorplan)
		putU32(&payload, uint32(e.K))
		putU32(&payload, uint32(e.M))
		putU32(&payload, uint32(e.GridW))
		putU32(&payload, uint32(e.GridH))
		var flags uint32
		if e.Tracking {
			flags |= indexFlagTracking
		}
		putU32(&payload, flags)
	}
	return writeEnvelope(w, indexMagic, IndexVersion, payload.Bytes())
}

// DecodeIndex reads one index. The error contract matches Decode: hostile
// bytes yield a typed *Error (ErrBadMagic, ErrUnknownVersion, ErrTruncated,
// ErrChecksum, ErrInvalid), never a panic — and the caller is expected to
// treat any of them as "rebuild the index from a directory scan".
func DecodeIndex(r io.Reader) (*Index, error) {
	payload, err := readEnvelope(r, indexMagic, IndexVersion)
	if err != nil {
		return nil, err
	}
	return parseIndexPayload(payload)
}

// parseIndexPayload parses a checksum-verified index payload.
func parseIndexPayload(payload []byte) (*Index, error) {
	p := &reader{buf: payload}
	count, err := p.count(minIndexEntry, "index entry count")
	if err != nil {
		return nil, err
	}
	idx := &Index{Entries: make([]IndexEntry, 0, count)}
	seen := make(map[string]struct{}, count)
	for i := 0; i < count; i++ {
		var e IndexEntry
		if e.ID, err = p.string("index id"); err != nil {
			return nil, err
		}
		if e.File, err = p.string("index file"); err != nil {
			return nil, err
		}
		if e.TrainKey, err = p.string("index train key"); err != nil {
			return nil, err
		}
		if e.Floorplan, err = p.string("index floorplan"); err != nil {
			return nil, err
		}
		var k, m, gw, gh, flags uint32
		if k, err = p.u32("index K"); err != nil {
			return nil, err
		}
		if m, err = p.u32("index M"); err != nil {
			return nil, err
		}
		if gw, err = p.u32("index grid W"); err != nil {
			return nil, err
		}
		if gh, err = p.u32("index grid H"); err != nil {
			return nil, err
		}
		if flags, err = p.u32("index flags"); err != nil {
			return nil, err
		}
		if flags&^uint32(indexFlagTracking) != 0 {
			return nil, errf(KindInvalid, "unknown index entry flags %#x", flags)
		}
		e.K, e.M, e.GridW, e.GridH = int(k), int(m), int(gw), int(gh)
		e.Tracking = flags&indexFlagTracking != 0
		if e.ID == "" || e.File == "" {
			return nil, errf(KindInvalid, "index entry %d has empty id or file", i)
		}
		if filepath.Base(e.File) != e.File {
			return nil, errf(KindInvalid, "index entry %q names a non-local file %q", e.ID, e.File)
		}
		if _, dup := seen[e.ID]; dup {
			return nil, errf(KindInvalid, "duplicate index entry %q", e.ID)
		}
		seen[e.ID] = struct{}{}
		idx.Entries = append(idx.Entries, e)
	}
	if p.off != len(p.buf) {
		return nil, errf(KindInvalid, "%d trailing index payload bytes", len(p.buf)-p.off)
	}
	return idx, nil
}

// SaveIndexFile writes idx to path atomically (temp file + fsync + rename),
// like SaveFile: a crash mid-write leaves the old index or none, never a
// torn one.
func SaveIndexFile(path string, idx *Index) error {
	return saveAtomic(path, func(w io.Writer) error { return EncodeIndex(w, idx) })
}

// LoadIndexFile reads an index written by SaveIndexFile.
func LoadIndexFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &Error{Kind: KindIO, Detail: "opening index file", Err: err}
	}
	defer f.Close()
	return DecodeIndex(f)
}
