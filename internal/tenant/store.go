package tenant

import (
	"fmt"
	"sort"
	"sync"
)

// Stored is one accepted spec plus the generation number it was stored
// at. Generations come from a store-wide monotone counter, so any two
// writes — to the same tenant or different ones — are totally ordered.
type Stored struct {
	ID         string `json:"id"`
	Spec       Spec   `json:"spec"`
	Generation int64  `json:"generation"`
}

// ConflictError reports a conditional Put that lost a generation race:
// the caller expected the tenant at one generation but found another.
type ConflictError struct {
	ID       string
	Expected int64
	Current  int64
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("tenant %q: generation conflict: expected %d, current %d",
		e.ID, e.Expected, e.Current)
}

// Store holds the desired state: validated specs keyed by tenant ID,
// each stamped with the generation of its last write. It is the
// "desired" half the Manager reconciles against.
type Store struct {
	mu    sync.Mutex
	gen   int64
	specs map[string]Stored
}

// newStore returns an empty store.
func newStore() *Store {
	return &Store{specs: make(map[string]Stored)}
}

// Put validates and stores a spec, assigning the next generation.
// expect is optimistic-concurrency control: 0 writes unconditionally;
// a positive value must equal the tenant's current generation or the
// write fails with *ConflictError (a concurrent writer got there
// first). Creating a tenant conditionally (expect > 0 with no existing
// spec) also conflicts, with Current 0. Returns the stored record.
func (s *Store) Put(id string, spec Spec, expect int64) (Stored, error) {
	if err := validateID(id); err != nil {
		return Stored{}, err
	}
	if err := spec.Validate(); err != nil {
		return Stored{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, exists := s.specs[id]
	if expect > 0 {
		curGen := int64(0)
		if exists {
			curGen = cur.Generation
		}
		if curGen != expect {
			return Stored{}, &ConflictError{ID: id, Expected: expect, Current: curGen}
		}
	}
	s.gen++
	st := Stored{ID: id, Spec: spec, Generation: s.gen}
	s.specs[id] = st
	return st, nil
}

// Get returns the stored spec for id.
func (s *Store) Get(id string) (Stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.specs[id]
	return st, ok
}

// remove removes id from the desired state, reporting whether it was
// present. The Manager's next reconcile tears the runtime down.
func (s *Store) remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.specs[id]
	delete(s.specs, id)
	return ok
}

// List returns every stored spec, sorted by ID.
func (s *Store) List() []Stored {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stored, 0, len(s.specs))
	for _, st := range s.specs {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of stored specs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.specs)
}
