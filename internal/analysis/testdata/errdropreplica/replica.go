// Package replica (fixture) exercises the errdrop analyzer on the
// replication plane: a mutator's error thrown away at the replica seam is
// a row — or a migration's report — silently wrong, so a blank assignment
// is flagged and a handled call stays quiet.
package replica

import "errors"

type space struct{ rows map[string]string }

var errUnknown = errors.New("unknown row")

// Drop is a mutator: it removes the row for id or says why it could not.
func (s *space) Drop(id string) error {
	if _, ok := s.rows[id]; !ok {
		return errUnknown
	}
	delete(s.rows, id)
	return nil
}

func evictBlind(s *space, id string) {
	_ = s.Drop(id) // want "error result of s.Drop assigned to _"
}

// evictCounted handles the error: nothing to flag.
func evictCounted(s *space, id string) (kept int) {
	if err := s.Drop(id); err != nil {
		kept++
	}
	return kept
}
