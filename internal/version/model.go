package version

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// benchTraceDigest is the SHA-256 of BENCH_trace.json, the simulated results
// of every registry kernel on every machine at scale 2. TestModelDigest fails
// when the file stops matching it, so a change that moves any of those
// results must update it, and with it the model fingerprint.
const benchTraceDigest = "0ea1ccec16e8700733b9ee920d2d41153651eed013677f6a745e001c65bd2553"

// modelBump moves the fingerprint for a model change that BENCH_trace.json
// cannot see: one that changes results only at other scales or
// configurations. Increment it with such a change.
const modelBump = 1

var model = func() string {
	sum := sha256.Sum256([]byte(benchTraceDigest + "\x00" + strconv.Itoa(modelBump)))
	return hex.EncodeToString(sum[:8])
}()

// Model is the simulator model's fingerprint, 16 hex digits. Two builds
// with the same fingerprint produce the same results for every job, so a
// stored result may be served only under the fingerprint it was made with.
func Model() string { return model }
