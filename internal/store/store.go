// Package store is the daemon's persistence tier: an embedded,
// content-addressed result store. Every successful job the daemon executes
// is flushed here as one JSON file keyed by the job's content key (the
// normalized bench.JobSpec plus the store schema version), holding the full
// result document, the vgiw-metrics/v1 snapshot, the per-stage host timings,
// and host/build metadata. A restarted daemon consults the store before the
// singleflight path, so warm results survive the process — the same
// content-keying idea the ArtifactCache applies per artifact and the
// singleflight applies per in-flight job, extended to disk and across restarts.
//
// The layout is one directory per model generation, named by the simulator's
// model fingerprint (version.Model), holding one file per key
// (<dir>/<fingerprint>/<key>.json, written atomically via rename), plus
// free-form snapshot files (<dir>/<name>.snapshot.json) for the shutdown
// flight recorder. The fingerprint is also hashed into every key, so a
// model change misses every older entry and retires the old generation as
// one directory, which can be deleted whole. Files are self-describing: each
// entry embeds the schema version and its own spec, so Get verifies the
// content actually matches the key before serving it.
//
// A nil *Store is valid and means "persistence disabled": Get always misses,
// Put and PutSnapshot discard, List is empty — mirroring the nil Sink and
// nil Registry contracts.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/trace"
	"vgiw/internal/version"
)

// Schema versions the on-disk entry format AND participates in the content
// key: bumping it orphans (not corrupts) old entries, so a format change can
// never serve a stale result under a new reading.
const Schema = "vgiw-store/v1"

// Key derives the store's content key for a spec: a hex SHA-256 over the
// schema version, the model fingerprint and the canonical JSON of the
// job-level content key (JobSpec.Key(), which strips the deadline — a
// deadline changes when a job may fail, never what it computes). Equal keys
// guarantee byte-identical results, so a stored entry can be served in place
// of a re-execution.
func Key(spec bench.JobSpec) string { return modelKey(version.Model(), spec) }

// modelKey is Key under a given model fingerprint.
func modelKey(model string, spec bench.JobSpec) string {
	b, err := json.Marshal(spec.Key())
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail on it. Keep the
		// signature ergonomic and make any future regression unmissable.
		panic(fmt.Sprintf("store: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(Schema))
	h.Write([]byte{0})
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// HostMeta records where an entry was produced, for provenance when store
// directories are copied between machines.
type HostMeta struct {
	Version string `json:"version"` // vgiw build identifier
	Model   string `json:"model"`   // model fingerprint (version.Model)
	Go      string `json:"go"`
	OS      string `json:"os"`
	Arch    string `json:"arch"`
}

// StageMS is the per-stage host timing split of the stored run, in
// milliseconds. Host telemetry, not simulated data: byte-identity claims
// cover Result, never these.
type StageMS struct {
	Instance float64 `json:"instance,omitempty"`
	Compile  float64 `json:"compile,omitempty"`
	Place    float64 `json:"place,omitempty"`
	Simulate float64 `json:"simulate,omitempty"`
}

// Entry is one stored job result.
type Entry struct {
	Schema  string        `json:"schema"`
	Key     string        `json:"key"`
	Spec    bench.JobSpec `json:"spec"` // normalized content key (TimeoutMS stripped)
	Created time.Time     `json:"created"`
	Host    HostMeta      `json:"host"`
	StageMS StageMS       `json:"stage_ms"`

	// Result is the job's result document, stored and served verbatim — a
	// store hit is byte-identical to the execution that produced it.
	Result json.RawMessage `json:"result"`

	// Metrics is the run's vgiw-metrics/v1 snapshot. The entry as a whole is
	// not a benchgate baseline (bench.ParseBaseline rejects its
	// vgiw-store/v1 schema), but this object is: saved on its own, two
	// entries' metrics compare with benchgate -baseline A -current B.
	Metrics *trace.Snapshot `json:"metrics,omitempty"`
}

// NewHostMeta fills the provenance fields from the running binary.
func NewHostMeta() HostMeta {
	return HostMeta{
		Version: version.String(),
		Model:   version.Model(),
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
	}
}

// Store is a directory of entries. Methods are safe for concurrent use by
// the daemon's workers: writes are atomic (temp file + rename) and reads
// only ever observe complete files.
type Store struct {
	dir   string
	model string // the generation this store reads and writes
}

// Open creates (if needed) and opens a store directory, reading and writing
// the generation of the running model. An empty dir returns a nil store —
// persistence disabled — so callers thread the flag value straight through.
func Open(dir string) (*Store, error) { return openModel(dir, version.Model()) }

// openModel is Open for the generation of a given model fingerprint. Its
// directory is made by the first Put, so opening stays one stat of dir.
func openModel(dir, model string) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, model: model}, nil
}

// Dir reports the backing directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// genDir is the directory of this store's generation.
func (s *Store) genDir() string { return filepath.Join(s.dir, s.model) }

func (s *Store) entryPath(key string) string { return filepath.Join(s.genDir(), key+".json") }

// ErrBadKey is Get's answer to a key that Key cannot produce. Get joins the
// key into a file path, so only 64 lowercase hex characters reach the file
// system; anything else could name a file outside the store.
var ErrBadKey = errors.New("store: malformed key (want 64 lowercase hex characters)")

// validKey reports whether key has the form Key produces.
func validKey(key string) bool {
	if len(key) != hex.EncodedLen(sha256.Size) {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get loads the entry for a key. A missing entry is (nil, nil); a key of
// the wrong form is ErrBadKey; a present but unreadable/mismatched entry is
// an error, so the caller can count it and fall through to a real
// execution instead of serving garbage.
func (s *Store) Get(key string) (*Entry, error) {
	if s == nil {
		return nil, nil
	}
	if !validKey(key) {
		return nil, ErrBadKey
	}
	data, err := os.ReadFile(s.entryPath(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("store: %s: %w", key, err)
	}
	if e.Schema != Schema {
		return nil, fmt.Errorf("store: %s: schema %q, want %q", key, e.Schema, Schema)
	}
	// Self-check: the embedded spec must hash back to the key it was filed
	// under. This guards hand-edited or cross-copied files (an entry copied
	// in from another generation hashes to another key), and it refuses
	// entries of job kinds the daemon no longer runs: their spec fields do
	// not decode, so what is left hashes to a different key.
	if got := modelKey(s.model, e.Spec); got != key {
		return nil, fmt.Errorf("store: %s: content is for key %s", key, got)
	}
	return &e, nil
}

// Put files one entry under its spec's key, atomically. The entry's Schema,
// Key and Host.Model fields are filled here so callers cannot file
// inconsistent records.
func (s *Store) Put(e *Entry) error {
	if s == nil {
		return nil
	}
	e.Schema = Schema
	e.Key = modelKey(s.model, e.Spec)
	e.Host.Model = s.model
	if e.Created.IsZero() {
		e.Created = time.Now().UTC()
	}
	// Compact, not indented: indentation would rewrite the embedded Result
	// bytes, and the store's whole point is serving them back verbatim.
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := s.entryPath(e.Key)
	err = s.writeAtomic(path, append(data, '\n'))
	if errors.Is(err, fs.ErrNotExist) {
		// The generation's first entry. Mkdir, not MkdirAll: a store
		// directory removed under the daemon stays removed.
		if err = os.Mkdir(s.genDir(), 0o755); err == nil || errors.Is(err, fs.ErrExist) {
			err = s.writeAtomic(path, append(data, '\n'))
		} else {
			err = fmt.Errorf("store: %w", err)
		}
	}
	return err
}

// List loads every entry of this store's generation, ordered stably by
// creation time then key; other generations are not read. Unreadable files
// are skipped (a torn copy must not take the history API down) and reported
// in the error alongside the successfully loaded entries.
func (s *Store) List() ([]*Entry, error) {
	if s == nil {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(s.genDir(), "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var entries []*Entry
	var bad []string
	for _, name := range names {
		key := strings.TrimSuffix(filepath.Base(name), ".json")
		e, err := s.Get(key)
		if err != nil || e == nil {
			bad = append(bad, filepath.Base(name))
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].Created.Equal(entries[j].Created) {
			return entries[i].Created.Before(entries[j].Created)
		}
		return entries[i].Key < entries[j].Key
	})
	if len(bad) > 0 {
		err = fmt.Errorf("store: skipped %d unreadable entries (%s)", len(bad), strings.Join(bad, ", "))
	}
	return entries, err
}

// PutSnapshot persists a registry as a named vgiw-metrics/v1 snapshot file
// (<dir>/<name>.snapshot.json), overwriting any previous one. The daemon
// writes a final "shutdown" snapshot during SIGTERM drain, so the last
// process state survives for post-mortems instead of living only in stderr.
func (s *Store) PutSnapshot(name string, reg *trace.Registry, scale int) error {
	if s == nil {
		return nil
	}
	var buf strings.Builder
	if err := reg.WriteSnapshot(&buf, scale); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.writeAtomic(filepath.Join(s.dir, name+".snapshot.json"), []byte(buf.String()))
}

// writeAtomic writes data to path via a same-directory temp file + rename,
// so concurrent readers and a mid-write crash both observe either the old
// complete file or the new complete file, never a torn one.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}
