package netsim

// NumTaps reports how many link observers are registered, for the
// external tests that check scoped taps are removed.
func (n *Network) NumTaps() int { return len(n.taps) }
