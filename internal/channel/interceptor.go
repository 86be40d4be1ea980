package channel

import (
	"fmt"
	"math/rand"
	"sync"

	"mocca/internal/odp"
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

// TransparencyGate enforces a required transparency mask on inbound
// frames: peers that declare a mask (MaskHeader) lacking a required
// transparency are rejected. Frames without a declaration pass — the gate
// constrains declared bindings, it does not demand declarations.
func TransparencyGate(required odp.Mask) Interceptor {
	return func(f *Frame) error {
		if f.Dir != Inbound {
			return nil
		}
		declared, ok := f.Env.Header(MaskHeader)
		if !ok {
			return nil
		}
		mask, err := odp.ParseMask(declared)
		if err != nil {
			return fmt.Errorf("channel: bad transparency declaration %q: %w", declared, err)
		}
		if mask&required != required {
			return fmt.Errorf("channel: binding provides %v, requires %v", mask, required)
		}
		return nil
	}
}
