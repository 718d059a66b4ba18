// Package rng provides the pseudo-random number generation substrate of the
// sampler: an MT19937 Mersenne Twister (the paper's host PRNG, §5.1.2), a
// SplitMix64-decorrelated set of per-thread streams standing in for the
// MTGP32 device generator, and the distribution samplers the proposal
// kernel draws from (uniform, exponential, truncated exponential,
// categorical).
package rng

// Source is the minimal generator interface used throughout the sampler.
// Implementations need not be safe for concurrent use; parallel kernels
// take one Source per thread from a StreamSet.
type Source interface {
	// Uint32 returns the next 32 uniformly distributed bits.
	Uint32() uint32
	// Float64 returns a uniform variate in [0, 1) with 53-bit resolution.
	Float64() float64
}

const (
	mtN         = 624
	mtM         = 397
	mtMatrixA   = 0x9908b0df
	mtUpperMask = 0x80000000
	mtLowerMask = 0x7fffffff
)

// MT19937 is the 32-bit Mersenne Twister of Matsumoto & Nishimura (1998),
// the generator the reference implementation uses on the host. The zero
// value is not usable; construct with NewMT19937.
type MT19937 struct {
	state [mtN]uint32
	index int
}

// NewMT19937 returns a generator initialized with init_genrand(seed)
// exactly as in the reference C implementation.
func NewMT19937(seed uint32) *MT19937 {
	m := &MT19937{}
	m.Seed(seed)
	return m
}

// Seed reinitializes the generator state from a 32-bit seed.
func (m *MT19937) Seed(seed uint32) {
	m.state[0] = seed
	for i := uint32(1); i < mtN; i++ {
		m.state[i] = 1812433253*(m.state[i-1]^(m.state[i-1]>>30)) + i
	}
	m.index = mtN
}

// SeedArray reinitializes state from a key array, mirroring
// init_by_array of the reference implementation.
func (m *MT19937) SeedArray(key []uint32) {
	m.Seed(19650218)
	i, j := 1, 0
	k := len(key)
	if mtN > k {
		k = mtN
	}
	for ; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 30)) * 1664525)) + key[j] + uint32(j)
		i++
		j++
		if i >= mtN {
			m.state[0] = m.state[mtN-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = mtN - 1; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 30)) * 1566083941)) - uint32(i)
		i++
		if i >= mtN {
			m.state[0] = m.state[mtN-1]
			i = 1
		}
	}
	m.state[0] = 0x80000000
	m.index = mtN
}

func (m *MT19937) generate() {
	for i := 0; i < mtN; i++ {
		y := (m.state[i] & mtUpperMask) | (m.state[(i+1)%mtN] & mtLowerMask)
		next := m.state[(i+mtM)%mtN] ^ (y >> 1)
		if y&1 != 0 {
			next ^= mtMatrixA
		}
		m.state[i] = next
	}
	m.index = 0
}

// Uint32 returns the next tempered 32-bit output word.
func (m *MT19937) Uint32() uint32 {
	if m.index >= mtN {
		m.generate()
	}
	y := m.state[m.index]
	m.index++
	y ^= y >> 11
	y ^= (y << 7) & 0x9d2c5680
	y ^= (y << 15) & 0xefc60000
	y ^= y >> 18
	return y
}

// Float64 returns a uniform variate in [0, 1) with 53-bit resolution,
// equivalent to genrand_res53 of the reference implementation.
func (m *MT19937) Float64() float64 {
	a := m.Uint32() >> 5
	b := m.Uint32() >> 6
	return (float64(a)*67108864.0 + float64(b)) / 9007199254740992.0
}

var _ Source = (*MT19937)(nil)

// SplitMix64 advances a 64-bit SplitMix64 state and returns the next
// output. It is used only to derive decorrelated seeds for per-thread
// streams, never as a sampling generator itself.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamSet is a family of independent generators, one per device thread,
// standing in for the MTGP32 multi-stream Mersenne Twister of the paper:
// "calls from different threads keep their state independently, with a goal
// of zero correlation between the numbers generated for different threads
// at the same point in execution" (§5.1.2). Each stream is an MT19937
// seeded from a distinct SplitMix64 output of the master seed, so streams
// start in decorrelated regions of the state space.
type StreamSet struct {
	streams []*MT19937
}

// NewStreamSet creates n independent streams derived from seed.
func NewStreamSet(n int, seed uint64) *StreamSet {
	s := &StreamSet{streams: make([]*MT19937, n)}
	state := seed
	for i := range s.streams {
		v := SplitMix64(&state)
		key := []uint32{uint32(v), uint32(v >> 32), uint32(i)}
		m := &MT19937{}
		m.SeedArray(key)
		s.streams[i] = m
	}
	return s
}

// NewStreamSetOf makes a stream set of the given generators, in order,
// for a caller whose threads are seeded by its own schedule.
func NewStreamSetOf(streams []*MT19937) *StreamSet {
	return &StreamSet{streams: streams}
}

// Len returns the number of streams.
func (s *StreamSet) Len() int { return len(s.streams) }

// Stream returns the generator for thread i. The same i always yields the
// same generator, so a kernel thread owns its stream for the launch.
func (s *StreamSet) Stream(i int) *MT19937 { return s.streams[i] }
