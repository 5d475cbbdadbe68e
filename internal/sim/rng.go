package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 seeding into xoshiro256**). Workload generators and the GPU
// scheduler jitter use it so that every simulation is reproducible from a
// single seed, independent of math/rand's global state.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded with seed. Any seed, including zero,
// is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics when n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: RNG.Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns a duration in [d - d*frac, d + d*frac], clamped at zero.
// It models system-latency noise (e.g. PMA allocation calls into the
// proprietary driver are "subject to system latency" per the paper).
func (r *RNG) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 || d == 0 {
		return d
	}
	span := float64(d) * frac
	off := (r.Float64()*2 - 1) * span
	out := Duration(float64(d) + off)
	if out < 0 {
		out = 0
	}
	return out
}

// Perm fills a permutation of [0, n) into a new slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
