// Output rendering: the human form mirrors go vet
// ("file:line:col: check: msg", paths relative to the module root so
// output is stable across checkouts); the JSON form is the machine
// contract `make analyze` and any future tooling consume.

package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// relativize rewrites d's filename relative to root when it lies under it.
func relativize(d Diagnostic, root string) Diagnostic {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}

// RenderHuman writes one "file:line:col: check: msg" line per diagnostic.
func RenderHuman(w io.Writer, diags []Diagnostic, root string) error {
	for _, d := range diags {
		if _, err := fmt.Fprintf(w, "%s\n", relativize(d, root)); err != nil {
			return err
		}
	}
	return nil
}

// JSONDiagnostic is the stable machine-output schema of `vgiwcheck -json`.
type JSONDiagnostic struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// RenderJSON writes the diagnostics as a JSON array (always an array, so
// consumers can `len()` it without a null check).
func RenderJSON(w io.Writer, diags []Diagnostic, root string) error {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		d = relativize(d, root)
		out = append(out, JSONDiagnostic{
			File:  d.Pos.Filename,
			Line:  d.Pos.Line,
			Col:   d.Pos.Column,
			Check: d.Check,
			Msg:   d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
