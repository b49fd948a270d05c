package server

import (
	"testing"

	"vgiw/internal/leaktest"
)

// TestMain gates the whole suite on goroutine hygiene: job runners, waiting
// handlers, and watchdog tickers started by any test here must all be gone
// (within leaktest's grace period) once the last test finishes.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}
