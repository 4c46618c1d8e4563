// Package metrics implements the image-similarity measures Decamouflage's
// detectors score with: mean squared error (MSE), the structural similarity
// index (SSIM, Wang et al. 2004, Gaussian-window form), and peak
// signal-to-noise ratio (PSNR, kept for the paper's Appendix-A negative
// result).
package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"decamouflage/internal/cache"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
)

// ErrShapeMismatch indicates two images of different geometry.
var ErrShapeMismatch = errors.New("metrics: images must have identical shape")

func checkPair(a, b *imgcore.Image) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if !a.SameShape(b) {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, a, b)
	}
	return nil
}

// MSE returns the mean squared error between a and b over all samples
// (Eq. 5 in the paper).
func MSE(a, b *imgcore.Image) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	var s float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in decibels with L = 256
// intensity levels (Eq. 9 in the paper). Identical images yield +Inf.
//
//declint:nan-ok shape validation runs in MSE; NaN samples propagate to the score
func PSNR(a, b *imgcore.Image) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	return PSNRFromMSE(mse), nil
}

// PSNRFromMSE converts an already-computed mean squared error into the PSNR
// score, bit-identical to PSNR's own conversion. The detection pipeline
// uses it to derive the PSNR score from a memoized MSE without touching the
// pixels again.
func PSNRFromMSE(mse float64) float64 {
	//declint:ignore floateq exact-zero MSE is the documented identical-images +Inf case
	if mse == 0 {
		return math.Inf(1)
	}
	const peak = 255.0
	return 10 * math.Log10(peak*peak/mse)
}

// SSIMOptions configures the structural similarity computation.
type SSIMOptions struct {
	// WindowRadius is the Gaussian window radius; the window is
	// (2r+1)x(2r+1). The standard configuration is r=5 (11x11).
	WindowRadius int
	// Sigma is the Gaussian window standard deviation (standard: 1.5).
	Sigma float64
	// K1, K2 are the stabilization constants (standard: 0.01, 0.03).
	K1, K2 float64
	// L is the dynamic range of pixel values (255 for 8-bit).
	L float64
}

// DefaultSSIM returns the canonical SSIM parameters from Wang et al.
func DefaultSSIM() SSIMOptions {
	return SSIMOptions{WindowRadius: 5, Sigma: 1.5, K1: 0.01, K2: 0.03, L: 255}
}

// validate rejects options the SSIM formula cannot use: a window radius
// below 1, a non-finite or non-positive Sigma or L, and a non-finite or
// negative K1 or K2. The comparisons are written so NaN fails them.
func (o SSIMOptions) validate() error {
	if o.WindowRadius < 1 {
		return fmt.Errorf("metrics: window radius %d < 1", o.WindowRadius)
	}
	if !(o.Sigma > 0) || math.IsInf(o.Sigma, 1) {
		return fmt.Errorf("metrics: sigma %v is not a positive finite number", o.Sigma)
	}
	if !(o.L > 0) || math.IsInf(o.L, 1) {
		return fmt.Errorf("metrics: dynamic range %v is not a positive finite number", o.L)
	}
	if !(o.K1 >= 0) || math.IsInf(o.K1, 1) || !(o.K2 >= 0) || math.IsInf(o.K2, 1) {
		return fmt.Errorf("metrics: stabilization constants K1 %v, K2 %v are not non-negative finite numbers", o.K1, o.K2)
	}
	return nil
}

// SSIM returns the mean structural similarity index between a and b using
// the default parameters. Color images are scored on their luminance, the
// standard convention.
//
//declint:nan-ok delegates to SSIMWith, whose checkPair validation runs first
func SSIM(a, b *imgcore.Image) (float64, error) {
	return SSIMWith(a, b, DefaultSSIM())
}

// SSIMWith returns the mean SSIM index with explicit parameters.
//
// The implementation follows the reference algorithm: per-pixel local
// means, variances and covariance computed with a separable Gaussian
// window, combined via
//
//	SSIM = ((2·μaμb + c1)(2·σab + c2)) / ((μa² + μb² + c1)(σa² + σb² + c2))
//
// and averaged over all pixel positions. It prepares a's side as an
// SSIMRef and scores b against it.
//
//declint:nan-ok shape validation runs in ssimWith; NaN samples propagate to the score
func SSIMWith(a, b *imgcore.Image, opts SSIMOptions) (float64, error) {
	return ssimWith(context.Background(), a, b, opts)
}

// ssimWith is SSIMWith with parallel options threaded through for the
// serial-vs-parallel equivalence tests.
func ssimWith(ctx context.Context, a, b *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	ref, err := NewSSIMRef(ctx, a, opts, popts...)
	if err != nil {
		return 0, err
	}
	defer ref.Release()
	return ref.ScoreCtx(ctx, b, popts...)
}

// gaussianKernel returns a normalized 1-D Gaussian of radius r. It always
// builds fresh; the SSIM path uses kernelFor, which memoizes by (radius,
// sigma).
func gaussianKernel(r int, sigma float64) []float64 {
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// kernelCacheCap bounds the Gaussian window cache. SSIM sweeps use a
// handful of (radius, sigma) pairs at most; each kernel is tiny, the cap
// exists only to keep pathological parameter scans bounded.
const kernelCacheCap = 16

// kernelKey identifies a Gaussian window. Sigma is keyed by its bit
// pattern: distinct representations never alias, and the key needs no
// float comparison.
type kernelKey struct {
	r         int
	sigmaBits uint64
}

// kernelCache memoizes Gaussian windows, reporting hit/miss/eviction
// counts as the "metrics.gausswin" cache metrics.
var kernelCache = cache.NewLRU[kernelKey, []float64](kernelCacheCap, obs.NewCacheStats("metrics.gausswin"))

// kernelFor returns the cached normalized Gaussian window for (r, sigma),
// building it on first use. The returned slice is shared and must be
// treated as immutable.
func kernelFor(r int, sigma float64) []float64 {
	key := kernelKey{r: r, sigmaBits: math.Float64bits(sigma)}
	k, _ := kernelCache.GetOrBuild(key, func() ([]float64, error) {
		return gaussianKernel(r, sigma), nil
	})
	return k
}

// scratchPool recycles the whole-plane float64 buffers of SSIMRef and
// the SSIM term plane; bandPool recycles the streaming kernel's per-band
// ring and line buffers, which are a few dozen rows long. Keeping the two
// sizes apart matters: a plane borrow handed a band buffer would drop it
// and allocate a fresh plane. A pool per power-of-two size class keeps
// them apart too, but strands plane buffers in classes a mixed-geometry
// stream has moved away from, which raises peak memory. Buffers are not
// zeroed on reuse: every consumer fully overwrites its buffer before
// reading it.
var (
	scratchPool = sync.Pool{New: func() any { return &[]float64{} }}
	bandPool    = sync.Pool{New: func() any { return &[]float64{} }}
)

// getScratch borrows an n-sample plane from the scratch pool.
//
//declint:owns
func getScratch(n int) *[]float64 { return borrow(&scratchPool, n) }

// putScratch returns a getScratch buffer to the pool.
//
//declint:transfers
func putScratch(bp *[]float64) { scratchPool.Put(bp) }

// getBand borrows an n-sample band buffer from the band pool.
//
//declint:owns
func getBand(n int) *[]float64 { return borrow(&bandPool, n) }

// putBand returns a getBand buffer to the pool.
//
//declint:transfers
func putBand(bp *[]float64) { bandPool.Put(bp) }

// borrow takes a buffer from pool, growing it to n samples if needed.
//
//declint:owns
func borrow(pool *sync.Pool, n int) *[]float64 {
	bp := pool.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	}
	*bp = b[:n]
	return bp
}

// GaussianBlur smooths the single-channel w×h plane src into dst with a
// separable, normalized Gaussian of the given radius and sigma (the
// memoized window SSIM uses) under replicate borders. dst must not overlap
// src: the streaming kernel reads source rows after it has written earlier
// output rows, so overlapping planes are rejected. It runs the streaming
// kernel in parallel bands and honours ctx; each output sample sums its
// taps in ascending order, so the result is bit-identical across worker
// counts.
//
//declint:nan-ok a pure convolution: NaN/Inf samples propagate to the outputs whose windows cover them
func GaussianBlur(ctx context.Context, dst, src []float64, w, h, radius int, sigma float64) error {
	if w <= 0 || h <= 0 || len(src) != w*h || len(dst) != w*h {
		return fmt.Errorf("metrics: blur planes of %d and %d samples do not match %dx%d", len(src), len(dst), w, h)
	}
	if overlaps(dst, src) {
		return errors.New("metrics: blur destination overlaps its source")
	}
	if radius < 0 || !(sigma > 0) || math.IsInf(sigma, 1) {
		return fmt.Errorf("metrics: invalid Gaussian window radius %d, sigma %v", radius, sigma)
	}
	return gaussianBlur(ctx, dst, src, w, h, kernelFor(radius, sigma))
}

// gaussianBlur is GaussianBlur with an explicit kernel and parallel
// options.
func gaussianBlur(ctx context.Context, dst, src []float64, w, h int, kern []float64, popts ...parallel.Option) error {
	p := fusedPass{kind: fusedBlur, w: w, h: h, kern: kern, src: src, srcC: 1, dst: dst}
	return p.run(ctx, popts)
}

// convolveClampedAt computes one output sample with replicate clamping,
// taps in ascending k order.
//
//declint:hot
func convolveClampedAt(row []float64, w int, kern []float64, r, x int) float64 {
	var s float64
	for k := -r; k <= r; k++ {
		xx := x + k
		if xx < 0 {
			xx = 0
		} else if xx >= w {
			xx = w - 1
		}
		s += kern[k+r] * row[xx]
	}
	return s
}
