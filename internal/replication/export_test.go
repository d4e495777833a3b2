package replication

// Systems runs fn and returns every System it created, in creation
// order.
func Systems(fn func()) []*System {
	var out []*System
	prev := created
	created = func(sys *System) { out = append(out, sys) }
	defer func() { created = prev }()
	fn()
	return out
}

// Stores returns the system's stores in the order they were added.
func (sys *System) Stores() []*Store { return sys.stores }
