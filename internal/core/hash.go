package core

import (
	"math"
	"math/bits"
)

// Hash is the fixed word hash behind route keys and TraceFingerprint: a
// 64-bit state folded one 64-bit word at a time with a single multiply,
//
//	h = (rotl(h, 29) ^ w) * hashPrime
//
// and finished by the splitmix64 finalizer in Sum. Each step is a
// bijection of the state for a fixed word and of the word for a fixed
// state, so two inputs of equal length that differ in exactly one word
// never hash alike; the rotation carries a float's sign and exponent bits
// down into the low bits the next multiply spreads upward.
//
// Hash is unkeyed and every step inverts, so anyone can build an input
// that lands on a chosen value. It is therefore only used where the value
// must agree across processes and a forged collision is harmless: a route
// key that collides only sends a request to another shard. The V_safe
// cache never trusts it (see VSafeKey).
//
// Hash is a value; every method returns the extended state, so chains like
// NewHash("trace").Float(rate).Floats(samples).Sum() allocate nothing.
type Hash struct{ h uint64 }

const (
	hashPrime = 0x9e3779b97f4a7c15 // odd: multiplication is a bijection mod 2^64
	hashRot   = 29
)

// NewHash starts a hash in the named domain, so equal words hashed for
// different purposes (a raw trace, a load description, a shard score)
// start from different states.
func NewHash(domain string) Hash { return Hash{}.String(domain) }

// Word folds one 64-bit word into the state.
func (h Hash) Word(w uint64) Hash {
	return Hash{(bits.RotateLeft64(h.h, hashRot) ^ w) * hashPrime}
}

// Float folds a float64 by its bit pattern (so -0 and +0, and distinct NaN
// payloads, hash apart).
func (h Hash) Float(f float64) Hash { return h.Word(math.Float64bits(f)) }

// Floats folds a sample slice, one multiply per sample. The slice length
// is not folded here: callers that need it (TraceFingerprint) fold it
// first.
func (h Hash) Floats(xs []float64) Hash {
	for _, x := range xs {
		h = h.Float(x)
	}
	return h
}

// String folds a string: its length, then its bytes eight at a time
// (little-endian, the last word zero-padded).
func (h Hash) String(s string) Hash {
	h = h.Word(uint64(len(s)))
	for len(s) >= 8 {
		h = h.Word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = h.Word(w)
	}
	return h
}

// Sum finishes the hash with the splitmix64 finalizer, which spreads every
// state bit over the whole result (the multiply chain alone leaves low
// result bits blind to high input bits of the last word).
func (h Hash) Sum() uint64 {
	z := h.h
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
