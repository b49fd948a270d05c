package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/trace"
	"vgiw/internal/version"
)

func TestKeyContentAddressing(t *testing.T) {
	a := bench.JobSpec{Kernel: "bfs.kernel1", Scale: 2}
	b := bench.JobSpec{Kernel: "bfs.kernel1", Scale: 2, TimeoutMS: 5000}
	if Key(a) != Key(b) {
		t.Error("TimeoutMS leaked into the content key")
	}
	c := bench.JobSpec{Kernel: "bfs.kernel1", Scale: 3}
	if Key(a) == Key(c) {
		t.Error("different specs share a key")
	}
	if len(Key(a)) != 64 {
		t.Errorf("key %q is not hex sha256", Key(a))
	}
}

// TestKeyPinned pins a kernel spec's store key under a fixed model
// fingerprint. Every stored result is filed under a key like this one, so a
// change to the key's formula orphans the entries of every existing store
// directory; nothing but a schema change may move it. A model change moves
// Key through the fingerprint instead, as it should.
func TestKeyPinned(t *testing.T) {
	spec := bench.JobSpec{Kernel: "bfs.kernel1", LVCKB: 16, Mem: "writethrough"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	const want = "00b5541d8d01f8aff98e31013d2e2c17c3d229803ad666bc30849d382c48380d"
	if got := modelKey("0123456789abcdef", spec); got != want {
		t.Errorf("modelKey(%+v) = %s, want %s", spec, got, want)
	}
	if Key(spec) != modelKey(version.Model(), spec) {
		t.Error("Key does not hash the running model's fingerprint")
	}
}

// TestGenerationsAreSeparate files entries under two model fingerprints in
// one directory: each generation lives in its own subdirectory, and an
// entry filed under one fingerprint is a miss, and absent from List, under
// the other.
func TestGenerationsAreSeparate(t *testing.T) {
	dir := t.TempDir()
	oldGen, err := openModel(dir, "00000000000000aa")
	if err != nil {
		t.Fatal(err)
	}
	newGen, err := openModel(dir, "00000000000000bb")
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.JobSpec{Kernel: "bfs.kernel1", Scale: 1}
	if err := oldGen.Put(&Entry{Spec: spec, Result: json.RawMessage(`{"old":true}`)}); err != nil {
		t.Fatal(err)
	}
	oldKey := modelKey(oldGen.model, spec)
	if _, err := os.Stat(filepath.Join(dir, oldGen.model, oldKey+".json")); err != nil {
		t.Fatalf("entry not filed at <dir>/<fingerprint>/<key>.json: %v", err)
	}
	newKey := modelKey(newGen.model, spec)
	if newKey == oldKey {
		t.Fatal("two fingerprints give one key")
	}
	for _, key := range []string{newKey, oldKey} {
		if e, err := newGen.Get(key); e != nil || err != nil {
			t.Errorf("new generation Get(%s) = (%v, %v), want a miss", key, e, err)
		}
	}
	if list, err := newGen.List(); len(list) != 0 || err != nil {
		t.Errorf("new generation List = %d entries, %v; want none", len(list), err)
	}

	if err := newGen.Put(&Entry{Spec: spec, Result: json.RawMessage(`{"new":true}`)}); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []*Store{oldGen, newGen} {
		list, err := gen.List()
		if err != nil || len(list) != 1 || list[0].Host.Model != gen.model {
			t.Fatalf("generation %s List = %d entries, %v; want its own entry alone", gen.model, len(list), err)
		}
		e, err := gen.Get(modelKey(gen.model, spec))
		if err != nil || e == nil || !bytes.Equal(e.Result, list[0].Result) {
			t.Errorf("generation %s Get = (%v, %v), want its own entry", gen.model, e, err)
		}
	}
}

// writeOlderEntry files an entry in the on-disk form of earlier builds,
// directly in dir, with a "kind" field, and with a key hashed from the
// schema and specJSON alone. It returns the key.
func writeOlderEntry(t *testing.T, dir, kind, specJSON string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(Schema + "\x00" + specJSON))
	key := hex.EncodeToString(sum[:])
	body := fmt.Sprintf(`{"schema":%q,"key":%q,"spec":%s,"kind":%q,"created":"2026-10-01T12:00:00Z",`+
		`"host":{"version":"vgiw dev","go":"go1.24.0","os":"linux","arch":"amd64"},"stage_ms":{"simulate":1.5},`+
		`"result":{"scale":1,"runs":[]}}`+"\n", Schema, key, specJSON, kind)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestOlderEntryForms reads a store directory written by builds from before
// the model fingerprint, whose entries sit directly in the directory under
// keys without one. None of them is served, since they predate the running
// model: Get misses the spec's key, and List neither lists nor reports
// them. The same files copied into the current generation under their old
// names are refused by the self-check, and List names them.
func TestOlderEntryForms(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.JobSpec{Kernel: "bfs.kernel1", LVCKB: 16, Mem: "writethrough"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	var older []string
	for _, old := range []struct{ kind, spec string }{
		{"kernel", `{"kernel":"bfs.kernel1","scale":1,"lvc_kb":16,"mem":"writethrough"}`},
		{"suite", `{"suite":true,"scale":1}`},
		{"source", `{"source":"kernel k params=0 shared=0\n@0 entry:\n  ret\n","scale":1}`},
		{"kernel", `{"kernel":"bfs.kernel1","scale":1,"fast":true}`},
	} {
		older = append(older, writeOlderEntry(t, dir, old.kind, old.spec))
	}
	if e, err := s.Get(Key(spec)); e != nil || err != nil {
		t.Errorf("Get over an older layout = (%+v, %v), want a miss", e, err)
	}
	if list, err := s.List(); len(list) != 0 || err != nil {
		t.Errorf("List over an older layout = %d entries, %v; want none and no error", len(list), err)
	}

	if err := os.MkdirAll(s.genDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, k := range older {
		if err := os.Rename(filepath.Join(dir, k+".json"), s.entryPath(k)); err != nil {
			t.Fatal(err)
		}
		if e, err := s.Get(k); e != nil || err == nil {
			t.Errorf("older entry %s in the current generation: Get = (%+v, %v), want an error", k, e, err)
		}
	}
	list, err := s.List()
	if len(list) != 0 {
		t.Errorf("List = %d entries, want none", len(list))
	}
	for _, k := range older {
		if err == nil || !strings.Contains(err.Error(), k+".json") {
			t.Errorf("List error %v does not name the skipped entry %s.json", err, k)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := bench.JobSpec{Kernel: "bfs.kernel1"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`{"scale":1,"runs":[{"kernel":"bfs.kernel1"}]}`)
	reg := trace.NewRegistry()
	reg.Set("bfs.kernel1/vgiw.cycles", 1234)
	ent := &Entry{
		Spec:    spec.Key(),
		Host:    NewHostMeta(),
		StageMS: StageMS{Simulate: 12.5},
		Result:  result,
		Metrics: &trace.Snapshot{Schema: trace.MetricsSchema, Scale: 1, Metrics: reg.Flat()},
	}
	if err := s.Put(ent); err != nil {
		t.Fatal(err)
	}

	got, err := s.Get(Key(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stored entry missing")
	}
	if !bytes.Equal(got.Result, result) {
		t.Errorf("result not byte-identical: %s vs %s", got.Result, result)
	}
	if got.Schema != Schema || got.Spec != spec.Key() {
		t.Errorf("entry envelope wrong: %+v", got)
	}
	if got.Metrics == nil || got.Metrics.Metrics["bfs.kernel1/vgiw.cycles"] != 1234 {
		t.Errorf("metrics snapshot lost: %+v", got.Metrics)
	}
	if got.Created.IsZero() {
		t.Error("Created not stamped")
	}
	if got.Host.Go == "" || got.Host.OS == "" {
		t.Errorf("host meta empty: %+v", got.Host)
	}

	// Unknown key: clean miss, no error.
	if e, err := s.Get(Key(bench.JobSpec{Kernel: "bfs.kernel2", Scale: 1})); e != nil || err != nil {
		t.Errorf("miss = (%v, %v), want (nil, nil)", e, err)
	}
}

func TestGetRejectsCorruptAndMismatched(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	spec := bench.JobSpec{Kernel: "bfs.kernel1", Scale: 1}
	key := Key(spec)

	// Corrupt JSON under a valid key name: error, not a crash or a hit.
	if err := os.MkdirAll(s.genDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); err == nil {
		t.Error("corrupt entry served without error")
	}

	// An entry filed under the wrong key must be rejected by the self-check.
	other := bench.JobSpec{Kernel: "bfs.kernel2", Scale: 1}
	if err := s.Put(&Entry{Spec: other, Result: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.entryPath(Key(other)), s.entryPath(key)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); err == nil {
		t.Error("cross-filed entry served without error")
	}
}

// TestGetRejectsMalformedKeys pins that Get refuses every key Key cannot
// produce before it touches the file system: a traversal key must neither
// read a file beside the store nor tell a present file from a missing one.
func TestGetRejectsMalformedKeys(t *testing.T) {
	parent := t.TempDir()
	s, err := Open(filepath.Join(parent, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "secret.json"), []byte(`{"schema":"outside-the-store"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := Key(bench.JobSpec{Kernel: "bfs.kernel1", Scale: 1})
	for _, key := range []string{
		"../secret", "../missing", "", "..", "/etc/passwd",
		strings.ToUpper(valid), valid[:63], valid + "0", valid[:63] + "g", "../" + valid[3:],
	} {
		ent, err := s.Get(key)
		if ent != nil || err == nil {
			t.Errorf("Get(%q) = (%v, %v), want a malformed-key error", key, ent, err)
			continue
		}
		if strings.Contains(err.Error(), "outside-the-store") {
			t.Errorf("Get(%q) read a file outside the store: %v", key, err)
		}
	}
	if ent, err := s.Get(valid); ent != nil || err != nil {
		t.Errorf("Get(valid missing key) = (%v, %v), want a miss", ent, err)
	}
}

func TestListStableOrder(t *testing.T) {
	s, _ := Open(t.TempDir())
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	specs := []bench.JobSpec{
		{Kernel: "bfs.kernel2", Scale: 1},
		{Kernel: "bfs.kernel1", Scale: 1},
		{Kernel: "bfs.kernel1", Scale: 2},
	}
	for i, sp := range specs {
		ent := &Entry{Spec: sp, Result: json.RawMessage(`{}`), Created: base.Add(time.Duration(2-i) * time.Hour)}
		if err := s.Put(ent); err != nil {
			t.Fatal(err)
		}
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d entries, want 3", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Created.Before(list[i-1].Created) {
			t.Errorf("list not ordered by Created: %v after %v", list[i].Created, list[i-1].Created)
		}
	}
	// The scale-2 entry was created first and must list first.
	if list[0].Spec.Scale != 2 {
		t.Errorf("oldest entry not first: %+v", list[0].Spec)
	}
}

func TestSnapshotRoundTripAndListExclusion(t *testing.T) {
	s, _ := Open(t.TempDir())
	reg := trace.NewRegistry()
	reg.Add("vgiwd/jobs_completed", 7)
	if err := s.PutSnapshot("shutdown", reg, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), "shutdown.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := trace.ReadSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Metrics["vgiwd/jobs_completed"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Snapshots must not pollute the entry listing.
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("snapshot leaked into List(): %+v", list)
	}
}

func TestNilStoreIsDisabled(t *testing.T) {
	var s *Store
	if s2, err := Open(""); s2 != nil || err != nil {
		t.Fatalf("Open(\"\") = (%v, %v), want (nil, nil)", s2, err)
	}
	if e, err := s.Get("abc"); e != nil || err != nil {
		t.Error("nil store Get not a miss")
	}
	if err := s.Put(&Entry{}); err != nil {
		t.Error("nil store Put errored")
	}
	if l, err := s.List(); l != nil || err != nil {
		t.Error("nil store List not empty")
	}
	if err := s.PutSnapshot("x", nil, 0); err != nil {
		t.Error("nil store PutSnapshot errored")
	}
	if s.Dir() != "" {
		t.Error("nil store has a dir")
	}
}

// TestSharedStoreConcurrentWriters opens two handles on one directory, as
// two daemons sharing a -store-dir do, and races Puts of overlapping keys
// against Gets and Lists. A read sees nothing or one complete, self-checked
// write; List never surfaces a temp file, and none is left behind.
func TestSharedStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	var handles []*Store
	for range 2 {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, s)
	}
	specs := []bench.JobSpec{
		{Kernel: "bfs.kernel1", Scale: 1},
		{Kernel: "bfs.kernel2", Scale: 1},
		{Kernel: "bfs.kernel1", Scale: 2},
	}
	const writersPerHandle, rounds = 2, 40
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	entry := func(spec bench.JobSpec, writer, round int) *Entry {
		return &Entry{
			Spec:    spec,
			Result:  json.RawMessage(fmt.Sprintf(`{"writer":%d,"round":%d}`, writer, round)),
			Created: base.Add(time.Duration(writer*rounds+round) * time.Second),
		}
	}
	// written maps each key to the Created stamp of every Result filed
	// under it, so a read can be matched to the write it observed.
	written := map[string]map[string]time.Time{}
	for _, spec := range specs {
		m := map[string]time.Time{}
		for w := range writersPerHandle * len(handles) {
			for r := range rounds {
				e := entry(spec, w, r)
				m[string(e.Result)] = e.Created
			}
		}
		written[Key(spec)] = m
	}
	check := func(e *Entry) error {
		stamps, ok := written[e.Key]
		if !ok {
			return fmt.Errorf("entry under unexpected key %q", e.Key)
		}
		created, ok := stamps[string(e.Result)]
		if !ok || !e.Created.Equal(created) || Key(e.Spec) != e.Key {
			return fmt.Errorf("entry %s matches no write: result %s created %v", e.Key, e.Result, e.Created)
		}
		return nil
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for h, s := range handles {
		for i := range writersPerHandle {
			w := h*writersPerHandle + i
			writers.Add(1)
			go func() {
				defer writers.Done()
				for r := range rounds {
					for _, spec := range specs {
						if err := s.Put(entry(spec, w, r)); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}
			}()
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen, err := s.List()
				for _, spec := range specs {
					e, gerr := s.Get(Key(spec))
					if e != nil {
						seen = append(seen, e)
					}
					err = errors.Join(err, gerr)
				}
				for _, e := range seen {
					err = errors.Join(err, check(e))
				}
				if err != nil {
					t.Errorf("handle %d: %v", h, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	files, err := os.ReadDir(handles[0].genDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", f.Name())
		}
	}
	list, err := handles[1].List()
	if err != nil || len(list) != len(specs) {
		t.Fatalf("final List: %d entries, err %v; want %d", len(list), err, len(specs))
	}
	for _, e := range list {
		if err := check(e); err != nil {
			t.Error(err)
		}
	}
}
