package version

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestStringShape(t *testing.T) {
	s := String()
	if !strings.HasPrefix(s, "vgiw ") {
		t.Fatalf("version %q does not start with the product name", s)
	}
	if !strings.Contains(s, runtime.Version()) {
		t.Errorf("version %q omits the Go toolchain version", s)
	}
	if strings.ContainsAny(s, "\n\r") {
		t.Errorf("version %q is not a single line", s)
	}
}

// TestModelDigest ties the model fingerprint to the checked-in results: when
// BENCH_trace.json changes, benchTraceDigest must change with it, which moves
// Model and so retires every stored result made under the old model.
func TestModelDigest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != benchTraceDigest {
		t.Errorf("BENCH_trace.json has SHA-256 %s, benchTraceDigest records %s: "+
			"the simulated results changed, so set benchTraceDigest to the new digest", got, benchTraceDigest)
	}
	if m := Model(); len(m) != 16 || strings.Trim(m, "0123456789abcdef") != "" {
		t.Errorf("Model() = %q, want 16 lowercase hex digits", m)
	}
}
