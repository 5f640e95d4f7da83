package dist

import "math/bits"

// Message is anything a node program can put on a link. Bits reports the
// message's width in the CONGEST accounting sense: the number of bits a
// real network would transmit for it. Implementations are free to charge
// an information-theoretic size rather than their in-memory size (see
// Count), but must be deterministic.
type Message interface {
	Bits() int
}

// Incoming is one delivered message: the local port it arrived on and its
// payload. OnRound receives incomings in increasing port order.
type Incoming struct {
	Port int
	Msg  Message
}

// Signal is the 1-bit content-free message ("I am here"). Protocols embed
// it to define their own named signal types:
//
//	type proposal struct{ dist.Signal }
//
// which inherit Bits() = 1 and cost nothing to box (zero-size struct).
type Signal struct{}

// Bits charges one bit: a signal's information is its presence.
func (Signal) Bits() int { return 1 }

// Bit is a single-bit payload message.
type Bit bool

// Bits returns 1.
func (Bit) Bits() int { return 1 }

// Count is a non-negative counter payload charged at its binary length,
// the convention of the paper's Lemma 3.7 accounting: a counter of value
// v costs ⌈log₂(v+1)⌉ bits (minimum 1). Values are carried as float64
// because the counting BFS lets counters exceed 2⁶³ on dense instances;
// oversized counters saturate at 63 bits.
type Count float64

// Bits returns the binary length of the counter.
func (c Count) Bits() int {
	v := float64(c)
	if v < 0 {
		v = -v
	}
	if v < 2 {
		return 1
	}
	if v >= 1<<62 {
		return 63
	}
	return bits.Len64(uint64(v))
}

// IDBits returns the width of a node identifier in an n-node network:
// ⌈log₂ n⌉, minimum 1. It is the unit CONGEST message budgets are
// expressed in.
func IDBits(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}
