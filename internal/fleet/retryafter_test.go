package fleet

import (
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		// Seconds form (what vgiwd emits).
		{"0", 0, true},
		{"1", time.Second, true},
		{"120", 2 * time.Minute, true},
		{" 3 ", 3 * time.Second, true},                  // whitespace-trimmed
		{"999999999999999999999", 24 * time.Hour, true}, // capped, not overflowed

		// HTTP-date form.
		{"Sat, 08 Aug 2026 12:00:05 GMT", 5 * time.Second, true},
		{"Sat, 08 Aug 2026 11:59:00 GMT", 0, true},                  // past date clamps to now
		{"Saturday, 08-Aug-26 12:00:02 GMT", 2 * time.Second, true}, // RFC 850 form

		// Malformed values: fall back to the client's own backoff.
		{"", 0, false},
		{"-1", 0, false},
		{"1.5", 0, false},
		{"3s", 0, false},
		{"soon", 0, false},
		{"Sat, 99 Aug 2026 12:00:05 GMT", 0, false},
		{"18446744073709551616x", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}
