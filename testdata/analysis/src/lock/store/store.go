// Package store (corpus) models the daemon's result store for the lock
// pass: every method of a Store type in a package named store counts as
// file I/O.
package store

import "os"

// Store mimics the real store.Store: one file per key in a directory.
type Store struct {
	dir string
}

// Get reads one entry; the pass matches the call, not this body.
func (s *Store) Get(key string) ([]byte, error) {
	return os.ReadFile(s.dir + "/" + key)
}
