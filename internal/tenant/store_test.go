package tenant

import (
	"errors"
	"sync"
	"testing"
)

func TestStorePutGetDelete(t *testing.T) {
	s := newStore()
	st, err := s.Put("acme", validSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 1 {
		t.Errorf("first generation = %d, want 1", st.Generation)
	}
	got, ok := s.Get("acme")
	if !ok || got.Generation != 1 || got.Spec.Scale != "small" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	st2, err := s.Put("beta", validSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation != 2 {
		t.Errorf("store-wide generations should be monotone: got %d", st2.Generation)
	}
	ids := s.List()
	if len(ids) != 2 || ids[0].ID != "acme" || ids[1].ID != "beta" {
		t.Errorf("List = %+v", ids)
	}
	if !s.remove("acme") || s.remove("acme") {
		t.Error("Delete should report presence exactly once")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := newStore()
	if _, err := s.Put("Bad ID", validSpec(), 0); err == nil {
		t.Error("invalid id accepted")
	}
	bad := validSpec()
	bad.TickMs = 0
	if _, err := s.Put("ok", bad, 0); err == nil {
		t.Error("invalid spec accepted")
	}
	if s.Len() != 0 {
		t.Error("rejected writes must not store anything")
	}
}

func TestStoreGenerationConflict(t *testing.T) {
	s := newStore()
	st, err := s.Put("acme", validSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Conditional write at the current generation succeeds...
	st2, err := s.Put("acme", validSpec(), st.Generation)
	if err != nil {
		t.Fatal(err)
	}
	// ...and at a stale one conflicts, reporting both numbers.
	_, err = s.Put("acme", validSpec(), st.Generation)
	var cerr *ConflictError
	if !errors.As(err, &cerr) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if cerr.Expected != st.Generation || cerr.Current != st2.Generation {
		t.Errorf("conflict %+v, want expected=%d current=%d", cerr, st.Generation, st2.Generation)
	}
	// Conditional create of an absent tenant conflicts with Current 0.
	_, err = s.Put("ghost", validSpec(), 3)
	if !errors.As(err, &cerr) || cerr.Current != 0 {
		t.Errorf("conditional create: %v", err)
	}
}

// TestStoreConcurrentConditionalPuts races N writers all expecting the
// same generation: exactly one must win.
func TestStoreConcurrentConditionalPuts(t *testing.T) {
	s := newStore()
	st, err := s.Put("acme", validSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	wins := make(chan int64, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(budget int) {
			defer wg.Done()
			spec := validSpec()
			spec.Budget = budget + 1
			if got, err := s.Put("acme", spec, st.Generation); err == nil {
				wins <- got.Generation
			} else {
				var cerr *ConflictError
				if !errors.As(err, &cerr) {
					t.Errorf("loser got %v, want ConflictError", err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int64
	for g := range wins {
		winners = append(winners, g)
	}
	if len(winners) != 1 {
		t.Fatalf("%d conditional writers won, want exactly 1", len(winners))
	}
	cur, _ := s.Get("acme")
	if cur.Generation != winners[0] {
		t.Errorf("stored generation %d != winner %d", cur.Generation, winners[0])
	}
}
