package topology

import "sync"

// sharedShapes is how many machine shapes Shared keeps built: a sweep runs
// on one or two machines, and a process that walks more shapes than this
// does not pin them all.
const sharedShapes = 4

// shared is Shared's cache, the most recently used machine first.
var shared struct {
	mu    sync.Mutex
	built []sharedMachine
}

type sharedMachine struct {
	spec string // CanonicalSpec of the machine's description
	ic   Interconnect
}

// Shared returns the machine m describes, built once and handed to every
// caller that asks for the same CanonicalSpec, from any goroutine: no
// method of a built machine writes after construction (fault state lives
// in package faults), so runs share it. It keeps the last few shapes used
// and evicts the least recently used beyond them. A description that fails
// to build is not kept; its error comes back on every call.
func Shared(m Machine) (Interconnect, error) {
	spec := m.CanonicalSpec()
	shared.mu.Lock()
	ic := cachedLocked(spec)
	shared.mu.Unlock()
	if ic != nil {
		return ic, nil
	}
	ic, err := m.Build()
	if err != nil {
		return nil, err
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	// Another caller may have built the same shape meanwhile; keep the first.
	if first := cachedLocked(spec); first != nil {
		return first, nil
	}
	if len(shared.built) < sharedShapes {
		shared.built = append(shared.built, sharedMachine{})
	}
	copy(shared.built[1:], shared.built)
	shared.built[0] = sharedMachine{spec, ic}
	return ic, nil
}

// cachedLocked returns the machine cached under spec, moved to the front,
// or nil when none is. The caller holds shared.mu.
func cachedLocked(spec string) Interconnect {
	for i, e := range shared.built {
		if e.spec == spec {
			copy(shared.built[1:i+1], shared.built[:i])
			shared.built[0] = e
			return e.ic
		}
	}
	return nil
}
