// Package trace (corpus) pins the migrated nilguard pass: exported
// pointer-receiver methods of a Sink type in a package named trace must
// start by handling a nil receiver.
package trace

// Sink mimics the real trace.Sink's nil-means-off contract.
type Sink struct {
	n int
}

// Bad touches the receiver unguarded.
func (s *Sink) Bad() int { //want:nilguard exported method (*Sink).Bad must start by handling a nil receiver
	return s.n
}

// Good guards first: silent.
func (s *Sink) Good() int {
	if s == nil {
		return 0
	}
	return s.n
}

// LateGuard checks nil only after reading the receiver.
func (s *Sink) LateGuard() int { //want:nilguard exported method (*Sink).LateGuard must start by handling a nil receiver
	n := s.n
	if s == nil {
		return 0
	}
	return n
}

// Enabled guards inside its one return expression: silent.
func (s *Sink) Enabled() bool { return s != nil && s.n > 0 }

// Len guards with a leading non-nil test: silent.
func (s *Sink) Len() int {
	if s != nil {
		return s.n
	}
	return 0
}

// reset is unexported: the contract only binds the exported surface.
func (s *Sink) reset() {
	s.n = 0
}

// Other is not a Sink, so its methods are out of scope: silent.
type Other struct {
	n int
}

// Count touches the receiver unguarded, which is fine off Sink.
func (o *Other) Count() int {
	return o.n
}
