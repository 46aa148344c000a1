package sim

// RNG is a small, fast, deterministic pseudorandom generator
// (xorshift64* with a splitmix64-seeded state). Each simulated tile owns a
// private RNG so that parallel cycle-accurate runs are bit-identical to
// sequential runs regardless of thread interleaving (paper §II-C).
//
// The zero value is invalid; use NewRNG. RNG is not safe for concurrent
// use, by design: sharing one across tiles would reintroduce scheduling
// nondeterminism.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded deterministically from seed. Two RNGs
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// DeriveSeed splits an independent stream seed off base, keyed by an
// arbitrary string. It hashes the key (FNV-1a) into the base and applies
// the same splitmix64 finalizer Reseed uses, so derived seeds are as
// unrelated to each other — and to the base — as reseeding is. Sweep
// harnesses use it to give every run a deterministic private seed that
// depends only on (sweep seed, run key), never on scheduling order.
func DeriveSeed(base uint64, key string) uint64 {
	h := base ^ 0xCBF29CE484222325 // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001B3 // FNV prime
	}
	// splitmix64 finalizer, as in Reseed, to decorrelate near-equal hashes.
	z := h + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Reseed resets the generator to the stream defined by seed.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 step so that small/sequential seeds give unrelated streams.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	r.state = z
}

// State returns the generator's raw internal state, for checkpointing.
// Restoring it with SetState resumes the exact stream position.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured by State. A zero state (invalid
// for xorshift) is replaced by the same fallback Reseed uses, so a
// corrupt snapshot cannot wedge the generator.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudorandom bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Skip advances the stream past the next n draws without producing them:
// afterwards the generator is in the state n calls of Uint64 would have
// left it in. Every draw of this type consumes exactly one Uint64 (Intn
// takes the value modulo n and never rejects one), so a caller that knows
// how many numbers an unneeded choice would have drawn — a Perm over k
// entries draws k-1 — can skip the choice and stay at the stream position
// every later draw depends on. n <= 0 skips nothing.
func (r *RNG) Skip(n int) {
	x := r.state
	for ; n > 0; n-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	r.state = x
}

// Intn returns a uniform integer in [0, n): the next 64 bits modulo n. It
// panics if n <= 0. Routers draw a permutation of their handful of ports
// every cycle, so the small moduli are spelled out as constants, which
// compile to a multiply and shift instead of a hardware divide; the value
// is the same either way.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn called with n <= 0")
	}
	x := r.Uint64()
	switch n {
	case 1:
		return 0
	case 2:
		return int(x % 2)
	case 3:
		return int(x % 3)
	case 4:
		return int(x % 4)
	case 5:
		return int(x % 5)
	case 6:
		return int(x % 6)
	case 7:
		return int(x % 7)
	case 8:
		return int(x % 8)
	}
	return int(x % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns an index in [0,len(weights)) chosen with probability
// proportional to weights[i]. Weights must be non-negative and not all
// zero; otherwise Pick falls back to a uniform choice.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm fills dst with a pseudorandom permutation of [0, len(dst)).
// It is used to randomize arbitration order (paper §II-A5) without
// allocating: callers keep a scratch slice per tile. It draws exactly
// len(dst)-1 numbers (none for fewer than two entries), which is what lets
// a permutation nobody will read be replaced by Skip.
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
