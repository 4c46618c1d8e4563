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

func (o SSIMOptions) validate() error {
	if o.WindowRadius < 1 {
		return fmt.Errorf("metrics: window radius %d < 1", o.WindowRadius)
	}
	if o.Sigma <= 0 {
		return fmt.Errorf("metrics: sigma %v <= 0", o.Sigma)
	}
	if o.L <= 0 {
		return fmt.Errorf("metrics: dynamic range %v <= 0", o.L)
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
// and averaged over all pixel positions.
//
//declint:nan-ok shape validation runs in ssimWith; NaN samples propagate to the score
func SSIMWith(a, b *imgcore.Image, opts SSIMOptions) (float64, error) {
	return ssimWith(context.Background(), a, b, opts)
}

// ssimWith is SSIMWith with parallel options threaded through for the
// serial-vs-parallel equivalence tests. The Gaussian sweeps and the
// per-pixel product maps run in parallel bands; the final mean stays a
// serial reduction so the summation order — and therefore the result — is
// identical for every worker count.
func ssimWith(ctx context.Context, a, b *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	if err := opts.validate(); err != nil {
		return 0, err
	}
	w, h := a.W, a.H
	gaPix, gaP := grayPix(a)
	if gaP != nil {
		defer putScratch(gaP)
	}
	gbPix, gbP := grayPix(b)
	if gbP != nil {
		defer putScratch(gbP)
	}

	kern := kernelFor(opts.WindowRadius, opts.Sigma)

	// Every working buffer comes from the package scratch pool and is fully
	// overwritten before it is read, so reuse across calls cannot leak state;
	// the arithmetic and its order are unchanged from the allocating version,
	// keeping results bit-identical call over call. The five blur passes
	// share one pair of option slices (identical geometry).
	rowOpts, colOpts := blurOpts(w, h, len(kern), popts)
	n := w * h
	muAp, muBp := getScratch(n), getScratch(n)
	defer putScratch(muAp)
	defer putScratch(muBp)
	muA, muB := *muAp, *muBp
	if err := blurWith(ctx, muA, gaPix, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := blurWith(ctx, muB, gbPix, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}

	aap, bbp, abp := getScratch(n), getScratch(n), getScratch(n)
	defer putScratch(aap)
	defer putScratch(bbp)
	defer putScratch(abp)
	aa, bb, ab := *aap, *bbp, *abp
	prodOpts := append([]parallel.Option{parallel.Grain(minBlurWork)}, popts...)
	if err := parallel.For(ctx, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			aa[i] = gaPix[i] * gaPix[i]
			bb[i] = gbPix[i] * gbPix[i]
			ab[i] = gaPix[i] * gbPix[i]
		}
		return nil
	}, prodOpts...); err != nil {
		return 0, err
	}
	sAAp, sBBp, sABp := getScratch(n), getScratch(n), getScratch(n)
	defer putScratch(sAAp)
	defer putScratch(sBBp)
	defer putScratch(sABp)
	sAA, sBB, sAB := *sAAp, *sBBp, *sABp
	if err := blurWith(ctx, sAA, aa, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := blurWith(ctx, sBB, bb, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := blurWith(ctx, sAB, ab, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}

	c1 := (opts.K1 * opts.L) * (opts.K1 * opts.L)
	c2 := (opts.K2 * opts.L) * (opts.K2 * opts.L)

	var sum float64
	for i := 0; i < n; i++ {
		ma, mb := muA[i], muB[i]
		varA := sAA[i] - ma*ma
		varB := sBB[i] - mb*mb
		cov := sAB[i] - ma*mb
		num := (2*ma*mb + c1) * (2*cov + c2)
		den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
		sum += num / den
	}
	return sum / float64(n), nil
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

// grayPix returns the luminance samples of img using the same BT.601
// weights as imgcore's Gray. Single-channel inputs are returned as a
// read-only view of img.Pix with a nil pool pointer; multi-channel inputs
// are converted into a pooled buffer the caller must release with
// putScratch.
//
//declint:owns result 1
func grayPix(img *imgcore.Image) ([]float64, *[]float64) {
	if img.C == 1 {
		return img.Pix, nil
	}
	n := img.W * img.H
	bp := getScratch(n)
	buf := *bp
	for i := 0; i < n; i++ {
		r := img.Pix[i*3]
		g := img.Pix[i*3+1]
		b := img.Pix[i*3+2]
		buf[i] = 0.299*r + 0.587*g + 0.114*b
	}
	return buf, bp
}

// scratchPool recycles the float64 working buffers of ssimWith and
// blurInto. Buffers are not zeroed on reuse: every consumer fully
// overwrites its buffer before reading it.
var scratchPool = sync.Pool{New: func() any { return &[]float64{} }}

// getScratch borrows an n-sample buffer from the scratch pool.
//
//declint:owns
func getScratch(n int) *[]float64 {
	bp := scratchPool.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	}
	*bp = b[:n]
	return bp
}

// putScratch returns a getScratch buffer to the pool.
//
//declint:transfers
func putScratch(bp *[]float64) { scratchPool.Put(bp) }

// minBlurWork is the per-chunk grain (in kernel-weighted samples) below
// which a blur pass stays on the calling goroutine.
const minBlurWork = 1 << 14

// blurSeparable convolves a single-channel image with a separable kernel
// using replicate border handling, returning a fresh slice. It is a thin
// wrapper over blurInto for callers that want an owned result.
func blurSeparable(ctx context.Context, src []float64, w, h int, kern []float64, popts ...parallel.Option) ([]float64, error) {
	dst := make([]float64, len(src))
	if err := blurInto(ctx, dst, src, w, h, kern, popts...); err != nil {
		return nil, err
	}
	return dst, nil
}

// GaussianBlur smooths the single-channel w×h plane src into dst with a
// separable, normalized Gaussian of the given radius and sigma (the
// memoized window SSIM uses) under replicate borders. Both passes run in
// parallel bands and honour ctx; the row-pass buffer comes from the
// scratch pool. Each output sample sums its taps in ascending order, so
// the result is bit-identical across worker counts.
//
//declint:nan-ok a pure convolution: NaN/Inf samples propagate to the outputs whose windows cover them
func GaussianBlur(ctx context.Context, dst, src []float64, w, h, radius int, sigma float64) error {
	if w <= 0 || h <= 0 || len(src) != w*h || len(dst) != w*h {
		return fmt.Errorf("metrics: blur planes of %d and %d samples do not match %dx%d", len(src), len(dst), w, h)
	}
	if radius < 0 || !(sigma > 0) {
		return fmt.Errorf("metrics: invalid Gaussian window radius %d, sigma %v", radius, sigma)
	}
	return blurInto(ctx, dst, src, w, h, kernelFor(radius, sigma))
}

// blurInto is blurSeparable writing into a caller-provided destination
// (len(dst) == len(src) == w*h), drawing its intermediate row-pass buffer
// from the scratch pool.
func blurInto(ctx context.Context, dst, src []float64, w, h int, kern []float64, popts ...parallel.Option) error {
	rowOpts, colOpts := blurOpts(w, h, len(kern), popts)
	return blurWith(ctx, dst, src, w, h, kern, rowOpts, colOpts)
}

// blurOpts assembles the per-pass parallel options for a w×h blur with the
// given kernel length. Hoisted out of blurWith so ssimWith can build them
// once and share them across its five same-geometry blur passes.
func blurOpts(w, h, klen int, popts []parallel.Option) (rowOpts, colOpts []parallel.Option) {
	rowOpts = append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w*klen, minBlurWork)),
	}, popts...)
	colOpts = append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h*klen, minBlurWork)),
	}, popts...)
	return rowOpts, colOpts
}

// convolveRows writes the horizontal pass for rows [yLo, yHi): tmp row y is
// src row y convolved with kern under replicate clamping.
//
//declint:hot
func convolveRows(tmp, src []float64, w int, kern []float64, r, yLo, yHi int) {
	// Interior columns [lo, hi) have the kernel fully inside the row, so
	// the clamp branches vanish from the inner loop. The per-element tap
	// order (k ascending) matches the clamped loop exactly, keeping the
	// result bit-identical.
	lo := r
	if lo > w {
		lo = w
	}
	hi := w - r
	if hi < lo {
		hi = lo
	}
	for y := yLo; y < yHi; y++ {
		row := src[y*w : (y+1)*w]
		out := tmp[y*w : (y+1)*w]
		for x := 0; x < lo; x++ {
			out[x] = convolveClampedAt(row, w, kern, r, x)
		}
		// Four output samples per iteration: each keeps its own
		// accumulator summing taps in ascending k, so every sample's
		// addition order — and therefore its bits — match the scalar
		// loop, while the four independent chains hide the float64 add
		// latency the scalar loop serializes on.
		x := lo
		for ; x+3 < hi; x += 4 {
			var s0, s1, s2, s3 float64
			base := x - r
			for k := range kern {
				c := kern[k]
				s0 += c * row[base+k]
				s1 += c * row[base+k+1]
				s2 += c * row[base+k+2]
				s3 += c * row[base+k+3]
			}
			out[x] = s0
			out[x+1] = s1
			out[x+2] = s2
			out[x+3] = s3
		}
		for ; x < hi; x++ {
			var s float64
			base := x - r
			for k := range kern {
				s += kern[k] * row[base+k]
			}
			out[x] = s
		}
		for x := hi; x < w; x++ {
			out[x] = convolveClampedAt(row, w, kern, r, x)
		}
	}
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

// convolveCols writes the vertical pass for columns [xLo, xHi): dst column
// x is tmp column x convolved with kern under replicate clamping.
//
//declint:hot
func convolveCols(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi int) {
	// Interior rows [lo, hi) need no clamping; iterating y outermost and
	// x innermost turns the column walk into contiguous row reads. The
	// per-element tap order (k ascending) is unchanged either way, so the
	// sums are bit-identical to the clamped loop.
	lo := r
	if lo > h {
		lo = h
	}
	hi := h - r
	if hi < lo {
		hi = lo
	}
	for y := 0; y < lo; y++ {
		convolveColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
	for y := lo; y < hi; y++ {
		base := (y - r) * w
		out := dst[y*w : (y+1)*w]
		// Same four-accumulator shape as convolveRows: per-sample tap
		// order stays k ascending (bit-identical to the scalar loop),
		// and the four independent sums break the serial float64 add
		// chain that otherwise bounds the column pass.
		x := xLo
		for ; x+3 < xHi; x += 4 {
			var s0, s1, s2, s3 float64
			idx := base + x
			for k := range kern {
				c := kern[k]
				s0 += c * tmp[idx]
				s1 += c * tmp[idx+1]
				s2 += c * tmp[idx+2]
				s3 += c * tmp[idx+3]
				idx += w
			}
			out[x] = s0
			out[x+1] = s1
			out[x+2] = s2
			out[x+3] = s3
		}
		for ; x < xHi; x++ {
			var s float64
			idx := base + x
			for k := range kern {
				s += kern[k] * tmp[idx]
				idx += w
			}
			out[x] = s
		}
	}
	for y := hi; y < h; y++ {
		convolveColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
}

// convolveColsClampedRow computes output row y of the vertical pass with
// replicate clamping, taps in ascending k order.
//
//declint:hot
func convolveColsClampedRow(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi, y int) {
	out := dst[y*w : (y+1)*w]
	for x := xLo; x < xHi; x++ {
		var s float64
		for k := -r; k <= r; k++ {
			yy := y + k
			if yy < 0 {
				yy = 0
			} else if yy >= h {
				yy = h - 1
			}
			s += kern[k+r] * tmp[yy*w+x]
		}
		out[x] = s
	}
}

// blurWith runs the separable convolution with caller-assembled options.
// Each pass runs in parallel bands over disjoint output rows/columns;
// cancellation between passes propagates as an error.
func blurWith(ctx context.Context, dst, src []float64, w, h int, kern []float64, rowOpts, colOpts []parallel.Option) error {
	r := (len(kern) - 1) / 2
	tmpP := getScratch(len(src))
	defer putScratch(tmpP)
	tmp := *tmpP
	// Horizontal: chunks own disjoint row bands of tmp.
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		convolveRows(tmp, src, w, kern, r, yLo, yHi)
		return nil
	}, rowOpts...)
	if err != nil {
		return err
	}
	// Vertical: chunks own disjoint column bands of dst, reading all of tmp.
	return parallel.For(ctx, w, func(xLo, xHi int) error {
		convolveCols(dst, tmp, w, h, kern, r, xLo, xHi)
		return nil
	}, colOpts...)
}
