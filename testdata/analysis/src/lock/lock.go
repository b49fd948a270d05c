// Package lock is the known-bad corpus for the lock-discipline pass:
// lock-value copies, blocking operations inside explicit Lock/Unlock
// windows, file I/O inside any held window, and sync.Cond.Wait outside a
// re-check loop. The deferred-unlock idiom (for blocking ops) and
// default-guarded selects must stay silent.
package lock

import (
	"net/http"
	"os"
	"sync"
	"time"

	"corpus/lock/store"
)

type counter struct {
	mu sync.Mutex
	n  int
}

// value copies the mutex with its receiver.
func (c counter) value() int { //want:lock method value has a value receiver that copies sync.Mutex
	return c.n
}

// byValue copies the mutex through a parameter.
func byValue(c counter) int { //want:lock parameter of byValue passes sync.Mutex by value
	return c.n
}

// rangeCopy copies the mutex once per iteration.
func rangeCopy(cs []counter) int {
	total := 0
	for _, c := range cs { //want:lock range value copies sync.Mutex each iteration
		total += c.n
	}
	return total
}

// ptrValue takes the pointer: silent.
func ptrValue(c *counter) int {
	return c.n
}

type server struct {
	mu   sync.Mutex
	jobs chan int
}

// badRecv parks on a channel while holding the lock.
func (s *server) badRecv() int {
	s.mu.Lock()
	v := <-s.jobs //want:lock channel receive while s.mu is locked
	s.mu.Unlock()
	return v
}

// badSleep sleeps while holding the lock.
func (s *server) badSleep() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) //want:lock time.Sleep while s.mu is locked
	s.mu.Unlock()
}

// badHTTP does a network round-trip while holding the lock.
func (s *server) badHTTP(c *http.Client, req *http.Request) error {
	s.mu.Lock()
	_, err := c.Do(req) //want:lock net/http round-trip (Do) while s.mu is locked
	s.mu.Unlock()
	return err
}

// badWGWait waits on a WaitGroup while holding the lock.
func (s *server) badWGWait(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() //want:lock sync.WaitGroup.Wait while s.mu is locked
	s.mu.Unlock()
}

// badSelect parks on a no-default select while holding the lock.
func (s *server) badSelect(stop chan struct{}) {
	s.mu.Lock()
	select { //want:lock blocking select while s.mu is locked
	case <-s.jobs:
	case <-stop:
	}
	s.mu.Unlock()
}

// goodSelectDefault never blocks: silent.
func (s *server) goodSelectDefault() {
	s.mu.Lock()
	select {
	case <-s.jobs:
	default:
	}
	s.mu.Unlock()
}

// goodDefer is the repo's handler idiom — deferred unlock windows are
// deliberately tolerated: silent.
func (s *server) goodDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.jobs
}

// goodWindow closes the window before blocking: silent.
func (s *server) goodWindow() {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n == 0 {
		<-s.jobs
	}
}

type cache struct {
	mu    sync.Mutex
	st    *store.Store
	local *Store
	hits  map[string][]byte
}

// badReadExplicit reads a file inside an explicit window.
func (c *cache) badReadExplicit(path string) ([]byte, error) {
	c.mu.Lock()
	data, err := os.ReadFile(path) //want:lock file I/O (os.ReadFile) while c.mu is locked (explicit Lock without deferred Unlock)
	c.mu.Unlock()
	return data, err
}

// badStoreDeferred reads the store inside a deferred-unlock window: the
// exemption for blocking ops does not cover I/O.
func (c *cache) badStoreDeferred(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.hits[key]; ok {
		return b
	}
	b, _ := c.st.Get(key) //want:lock file I/O (store.Store.Get) while c.mu is locked (deferred Unlock holds it to function end)
	c.hits[key] = b
	return b
}

// fileLocked writes a file with the caller's lock held.
func (c *cache) fileLocked(path string, b []byte) {
	c.hits[path] = b
	if f, err := os.Create(path); err == nil { //want:lock file I/O (os.Create) in fileLocked, whose caller holds the lock
		f.Write(b) //want:lock file I/O (os.File.Write) in fileLocked, whose caller holds the lock
		f.Close()
	}
}

// goodAfterUnlock reads only once the window is closed: silent.
func (c *cache) goodAfterUnlock(key string) []byte {
	c.mu.Lock()
	b, ok := c.hits[key]
	c.mu.Unlock()
	if !ok {
		b, _ = c.st.Get(key)
	}
	return b
}

// Store is a local type of the same name outside a package named store:
// its methods are not file I/O, so this stays silent.
type Store struct{ n int }

// Get is pure in-memory work.
func (s *Store) Get() int { return s.n }

func (c *cache) goodLocalStore() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local.Get()
}

type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []int
}

// badWait re-checks with an if: the textbook lost-wakeup bug.
func (q *queue) badWait() int {
	q.mu.Lock()
	if len(q.items) == 0 {
		q.cond.Wait() //want:lock sync.Cond.Wait outside a for loop
	}
	v := q.items[0]
	q.mu.Unlock()
	return v
}

// goodWait re-checks in a loop: silent (holding the cond's lock at Wait is
// required, not a finding).
func (q *queue) goodWait() int {
	q.mu.Lock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	v := q.items[0]
	q.mu.Unlock()
	return v
}
