// Package draw is the simulator's one randomness model. Every random
// value a run uses is a hash of four coordinates: the run seed, a stream
// naming the consumer, the drawing entity (usually a node index) and a
// counter:
//
//	draw = Mix(KeyOf(seed, stream, node), counter)
//
// A draw therefore depends on its coordinates alone: not on event order,
// not on which shard region evaluates it, and not on how many draws other
// nodes or streams made. Two seeds share no key, so the replicates of a
// multi-seed batch draw independent networks.
//
// A Source is one (seed, stream, node) key plus a counter; its methods
// advance the counter from 1 and return Mix(key, counter). Consumers whose
// draws are keyed by content rather than by order (the radio's
// per-transmission draws, the admission cells' phases and ranks) name each
// draw's counter themselves and call Mix on the key.
package draw

import "encoding/binary"

// Stream names one consumer of randomness.
type Stream uint64

// The streams, each with the node coordinate it is keyed by.
const (
	Key       Stream = iota + 1 // node i: key pair and initial CGA modifier
	Protocol                    // node i: challenges, fresh modifiers, adversary coin flips; the DNS server shares node 0's
	Track                       // node i: mobility legs
	Placement                   // node 0: the uniform placement's positions, in node order
	Churn                       // the joiner's index: its spawn position and start jitter
	Radio                       // the transmitter; counter its transmit attempt, then 0 (jitter) or receiver+1 (loss)
	Boot                        // the admission cell; counter 0 its phase, counter i+1 member i's rank
	Audit                       // node i: the audit sweep's phase, its first draw
)

// Mix folds the values into one well-scrambled word, one splitmix64
// finalizer round per value. It is the model's only mixer.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// KeyOf returns the key every draw of (seed, s, node) folds from.
func KeyOf(seed int64, s Stream, node uint64) uint64 {
	return Mix(uint64(seed), uint64(s), node)
}

// Source is the draw sequence of one (seed, stream, node) triple: its
// k-th draw is Mix(key, k).
type Source struct {
	key uint64
	n   uint64 // draws made so far
}

// New returns the source of (seed, s, node), before its first draw.
func New(seed int64, s Stream, node uint64) *Source {
	return &Source{key: KeyOf(seed, s, node)}
}

// Uint64 returns the next draw.
func (s *Source) Uint64() uint64 {
	s.n++
	return Mix(s.key, s.n)
}

// Float64 returns the next draw as a float in [0, 1): its top 53 bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Int63n returns the next draw reduced to [0, n) for a positive n; the
// modulo bias is at most n/2^64.
func (s *Source) Int63n(n int64) int64 {
	return int64(s.Uint64() % uint64(n))
}

// Read fills p with the next ⌈len(p)/8⌉ draws concatenated, each
// little-endian, the last one truncated. It never fails: a source is the
// io.Reader key generation consumes.
func (s *Source) Read(p []byte) (int, error) {
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(w[:], s.Uint64())
		copy(p[i:], w[:])
	}
	return len(p), nil
}
