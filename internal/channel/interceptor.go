package channel

import (
	"math/rand"
	"sync"
)

// DropIf discards (as ErrDropFrame) every frame the predicate selects —
// the building block for targeted fault injection in tests and scenarios.
func DropIf(pred func(*Frame) bool) Interceptor {
	return func(f *Frame) error {
		if pred(f) {
			return ErrDropFrame
		}
		return nil
	}
}

// FailureInjector drops frames with probability rate, deterministically
// from seed — a transparency-testing tool: with failure transparency in
// place above (retries, rebinding), injected loss must not surface to
// applications.
func FailureInjector(seed int64, rate float64) Interceptor {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(*Frame) error {
		mu.Lock()
		hit := rng.Float64() < rate
		mu.Unlock()
		if hit {
			return ErrDropFrame
		}
		return nil
	}
}
