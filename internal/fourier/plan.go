// Transform plans. A Plan precomputes everything about a 1-D DFT of a
// fixed (length, direction) that does not depend on the input.
//
// Lengths whose prime factors are all at most 7 (every image axis the
// paper deploys: 224, 600, 768, 1024, ...) run as an in-place mixed-radix
// decimation-in-time FFT: a digit-reversal permutation, stored as a swap
// list, then one butterfly stage per factor with radix 4, 2, 3, 5 or 7
// and a precomputed twiddle table per stage (radix.go). Every other
// length runs Bluestein's chirp-z algorithm, whose circular convolution is
// evaluated with mixed-radix plans of the smallest 7-smooth length
// >= 2n-1.
//
// Accuracy contract: planned output matches the exact DFT to a relative
// L2 error below 1e-13 (planRelTol in the tests, pinned against the O(n²)
// oracle by TestPlanMatchesNaiveDFT, forward and inverse, for every
// length 1..64 and the image axes of the paper's geometries). It is not
// bit-identical to any other transform. Execution is deterministic: one plan yields the
// same bits for the same input on every call, goroutine and worker count.
//
// Plans are cached per (length, direction) in a bounded, mutex-guarded LRU
// (planCacheCap entries); Bluestein's convolution scratch comes from a
// sync.Pool. The steady state of a smooth-length transform allocates
// nothing.
package fourier

import (
	"fmt"
	"math"
	"sync"

	"decamouflage/internal/cache"
	"decamouflage/internal/obs"
)

// Plan is an immutable, reusable 1-D DFT descriptor for one (length,
// direction). It is safe for concurrent use: execution state lives on the
// caller's slice and in pooled scratch.
type Plan struct {
	n       int
	inverse bool

	// Mixed-radix state (n >= 2, every prime factor <= 7).
	swaps  []int   // digit-reversal permutation as index pairs, applied in order
	stages []stage // butterfly stages, innermost (span 1) first

	// Bluestein state (other lengths).
	m       int          // 7-smooth convolution length >= 2n-1
	chirp   []complex128 // exp(sign·iπk²/n), k in [0, n)
	bfft    []complex128 // forward FFT of the chirp filter, length m
	sub     *Plan        // mixed-radix plan of length m, forward
	subInv  *Plan        // mixed-radix plan of length m, inverse
	scratch *sync.Pool   // *[]complex128 of length m, zeroed on return
}

// N returns the transform length the plan was built for.
func (p *Plan) N() int { return p.n }

// Inverse reports the transform direction.
func (p *Plan) Inverse() bool { return p.inverse }

// smoothFactors returns the stage radices of n, innermost first, or nil
// when n has a prime factor above 7. Odd radices run first, where the
// span-1 stage needs no twiddles; powers of two pair into radix-4 stages
// behind at most one radix-2 stage.
func smoothFactors(n int) []int {
	var odd []int
	for _, r := range []int{7, 5, 3} {
		for n%r == 0 {
			odd = append(odd, r)
			n /= r
		}
	}
	twos := 0
	for n%2 == 0 {
		twos++
		n /= 2
	}
	if n != 1 {
		return nil
	}
	radices := odd
	if twos%2 == 1 {
		radices = append(radices, 2)
	}
	for i := 0; i < twos/2; i++ {
		radices = append(radices, 4)
	}
	return radices
}

// NewPlan builds a plan for an unnormalized DFT of length n in the given
// direction (inverse plans flip the twiddle sign and leave the 1/n
// scaling to the caller).
func NewPlan(n int, inverse bool) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fourier: invalid plan length %d", n)
	}
	p := &Plan{n: n, inverse: inverse}
	if n == 1 {
		return p, nil
	}
	if radices := smoothFactors(n); radices != nil {
		p.initMixed(radices)
		return p, nil
	}
	if err := p.initBluestein(); err != nil {
		return nil, err
	}
	return p, nil
}

// initBluestein precomputes the chirp sequence and the forward FFT of the
// chirp filter, plus the two mixed-radix sub-plans for the convolution
// length. Sub-plans come from the shared cache so Bluestein lengths with
// the same padded size share tables.
func (p *Plan) initBluestein() error {
	n := p.n
	m := nextSmooth(2*n - 1)
	p.m = m
	sign := p.sign()
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² reduced mod 2n: the chirp phase has period 2n in k², and the
		// reduction keeps the angle small and exact for large n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(c, s)
	}
	var err error
	if p.sub, err = PlanFor(m, false); err != nil {
		return err
	}
	if p.subInv, err = PlanFor(m, true); err != nil {
		return err
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = complex(real(p.chirp[k]), -imag(p.chirp[k]))
		if k > 0 {
			b[m-k] = b[k]
		}
	}
	p.sub.execMixed(b)
	p.bfft = b
	p.scratch = &sync.Pool{New: func() any { return &[]complex128{} }}
	return nil
}

// Transform runs the planned unnormalized DFT in place on x, which must
// have length N(). Forward plans compute X[k] = Σ_j x[j]·e^(-2πi·jk/n);
// inverse plans flip the exponent's sign and leave the 1/n scaling to the
// caller.
//
//declint:hot
func (p *Plan) Transform(x []complex128) error {
	if len(x) != p.n {
		//declint:ignore hotalloc error path only; the length-mismatch message boxes its ints once per misuse, never per transform
		return fmt.Errorf("fourier: plan length %d, input length %d", p.n, len(x))
	}
	if p.n == 1 {
		return nil
	}
	if p.stages != nil {
		p.execMixed(x)
		return nil
	}
	p.execBluestein(x)
	return nil
}

// execMixed permutes x into digit-reversed order and runs every butterfly
// stage in place; stage s combines blocks of its span (the product of the
// radices before it) into blocks radix times longer.
//
//declint:hot
func (p *Plan) execMixed(x []complex128) {
	sw := p.swaps
	for i := 0; i+1 < len(sw); i += 2 {
		a, b := sw[i], sw[i+1]
		x[a], x[b] = x[b], x[a]
	}
	for i := range p.stages {
		s := &p.stages[i]
		s.run(x)
	}
}

// sign is the exponent sign of the plan's twiddles: -1 forward, +1
// inverse.
func (p *Plan) sign() float64 {
	if p.inverse {
		return 1
	}
	return -1
}

// execBluestein evaluates the chirp-z convolution with the precomputed
// filter spectrum and pooled scratch: a[k] = x[k]·chirp[k] zero-padded to
// m, a ← IFFT(FFT(a)·bfft)/m, x[k] = a[k]·chirp[k].
//
//declint:hot
func (p *Plan) execBluestein(x []complex128) {
	n, m := p.n, p.m
	ap := p.scratch.Get().(*[]complex128)
	a := *ap
	if cap(a) < m {
		//declint:ignore hotalloc pool-miss cold path; steady state reuses the pooled buffer
		a = make([]complex128, m)
	}
	a = a[:m]
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	// a[n:] is zero: fresh buffers start zeroed and returned buffers are
	// cleared below.
	p.sub.execMixed(a)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	p.subInv.execMixed(a)
	scale := 1 / float64(m)
	for k := 0; k < n; k++ {
		v := a[k] * p.chirp[k]
		x[k] = complex(real(v)*scale, imag(v)*scale)
	}
	clear(a)
	*ap = a
	p.scratch.Put(ap)
}

// nextSmooth returns the smallest n' >= n whose prime factors are all at
// most 7.
func nextSmooth(n int) int {
	for ; ; n++ {
		m := n
		for _, r := range []int{2, 3, 5, 7} {
			for m%r == 0 {
				m /= r
			}
		}
		if m == 1 {
			return n
		}
	}
}

// planCacheCap bounds the global plan cache. Each entry is O(n) complex
// values; 64 entries comfortably cover a detection service's working set
// (a handful of image geometries × two directions, plus Bluestein
// sub-plans) while bounding worst-case memory.
const planCacheCap = 64

type planKey struct {
	n       int
	inverse bool
}

// planCache memoizes plans per (length, direction), reporting hit/miss/
// eviction counts as the "fourier.plan" cache metrics.
var planCache = cache.NewLRU[planKey, *Plan](planCacheCap, obs.NewCacheStats("fourier.plan"))

// PlanFor returns the cached plan for (n, direction), building and caching
// it on first use. The cache holds at most planCacheCap entries and evicts
// the least recently used; eviction only drops the cache's reference, so
// plans already held by callers (or embedded as Bluestein sub-plans)
// remain valid. Concurrent callers may briefly build the same plan twice
// (the build runs outside the cache lock, which also lets Bluestein
// construction recursively call PlanFor for its convolution length); both
// copies compute identical tables, so whichever lands in the cache is
// indistinguishable.
func PlanFor(n int, inverse bool) (*Plan, error) {
	return planCache.GetOrBuild(planKey{n: n, inverse: inverse}, func() (*Plan, error) {
		return NewPlan(n, inverse)
	})
}

// planCacheLen reports the current cache population (for tests).
func planCacheLen() int { return planCache.Len() }

// resetPlanCache empties the cache (for tests).
func resetPlanCache() { planCache.Reset() }
