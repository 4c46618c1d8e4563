package metrics

import (
	"context"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// This file holds the five-blur SSIM the streaming fused kernel replaced,
// kept verbatim (pooled buffers, four-wide interiors) as the bit-identity
// oracle of SSIMWith, SSIMRef and GaussianBlur and as the reference side
// of BenchmarkSSIMLegacy1024x768. Each comparison blurs five whole planes
// (a, b, a², b², ab), every blur a row pass into a full-size intermediate
// plane followed by a column pass.

// oracleBlurWork is the per-chunk grain (in kernel-weighted samples) below
// which an oracle blur pass stays on the calling goroutine.
const oracleBlurWork = 1 << 14

// ssimFiveBlur is the oracle SSIM: per-pixel local means, variances and
// covariance from five separable whole-plane Gaussian blurs, combined per
// pixel and averaged in a serial ascending reduction, so the score is the
// same for every worker count.
func ssimFiveBlur(ctx context.Context, a, b *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	if err := opts.validate(); err != nil {
		return 0, err
	}
	w, h := a.W, a.H
	gaPix, gaP := oracleGrayPix(a)
	if gaP != nil {
		defer putScratch(gaP)
	}
	gbPix, gbP := oracleGrayPix(b)
	if gbP != nil {
		defer putScratch(gbP)
	}

	kern := kernelFor(opts.WindowRadius, opts.Sigma)

	// Every working buffer comes from the package scratch pool and is fully
	// overwritten before it is read, so reuse across calls cannot leak state;
	// the arithmetic and its order are unchanged from the allocating version,
	// keeping results bit-identical call over call. The five blur passes
	// share one pair of option slices (identical geometry).
	rowOpts, colOpts := oracleBlurOpts(w, h, len(kern), popts)
	n := w * h
	muAp, muBp := getScratch(n), getScratch(n)
	defer putScratch(muAp)
	defer putScratch(muBp)
	muA, muB := *muAp, *muBp
	if err := oracleBlurWith(ctx, muA, gaPix, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := oracleBlurWith(ctx, muB, gbPix, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}

	aap, bbp, abp := getScratch(n), getScratch(n), getScratch(n)
	defer putScratch(aap)
	defer putScratch(bbp)
	defer putScratch(abp)
	aa, bb, ab := *aap, *bbp, *abp
	prodOpts := append([]parallel.Option{parallel.Grain(oracleBlurWork)}, popts...)
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
	if err := oracleBlurWith(ctx, sAA, aa, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := oracleBlurWith(ctx, sBB, bb, w, h, kern, rowOpts, colOpts); err != nil {
		return 0, err
	}
	if err := oracleBlurWith(ctx, sAB, ab, w, h, kern, rowOpts, colOpts); err != nil {
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

// oracleGrayPix returns the BT.601 luminance samples of img: a view of
// img.Pix with a nil pool pointer for single-channel images, otherwise a
// pooled plane the caller releases with putScratch.
func oracleGrayPix(img *imgcore.Image) ([]float64, *[]float64) {
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

// oracleBlurOpts assembles the per-pass parallel options for a w×h blur with the
// given kernel length. Hoisted out of oracleBlurWith so ssimFiveBlur can build them
// once and share them across its five same-geometry blur passes.
func oracleBlurOpts(w, h, klen int, popts []parallel.Option) (rowOpts, colOpts []parallel.Option) {
	rowOpts = append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w*klen, oracleBlurWork)),
	}, popts...)
	colOpts = append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h*klen, oracleBlurWork)),
	}, popts...)
	return rowOpts, colOpts
}

// oracleRows writes the horizontal pass for rows [yLo, yHi): tmp row y is
// src row y convolved with kern under replicate clamping.
func oracleRows(tmp, src []float64, w int, kern []float64, r, yLo, yHi int) {
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

// oracleCols writes the vertical pass for columns [xLo, xHi): dst column
// x is tmp column x convolved with kern under replicate clamping.
func oracleCols(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi int) {
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
		oracleColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
	for y := lo; y < hi; y++ {
		base := (y - r) * w
		out := dst[y*w : (y+1)*w]
		// Same four-accumulator shape as oracleRows: per-sample tap
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
		oracleColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
}

// oracleColsClampedRow computes output row y of the vertical pass with
// replicate clamping, taps in ascending k order.
func oracleColsClampedRow(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi, y int) {
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

// oracleBlurWith runs the separable convolution with caller-assembled options.
// Each pass runs in parallel bands over disjoint output rows/columns;
// cancellation between passes propagates as an error.
func oracleBlurWith(ctx context.Context, dst, src []float64, w, h int, kern []float64, rowOpts, colOpts []parallel.Option) error {
	r := (len(kern) - 1) / 2
	tmpP := getScratch(len(src))
	defer putScratch(tmpP)
	tmp := *tmpP
	// Horizontal: chunks own disjoint row bands of tmp.
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		oracleRows(tmp, src, w, kern, r, yLo, yHi)
		return nil
	}, rowOpts...)
	if err != nil {
		return err
	}
	// Vertical: chunks own disjoint column bands of dst, reading all of tmp.
	return parallel.For(ctx, w, func(xLo, xHi int) error {
		oracleCols(dst, tmp, w, h, kern, r, xLo, xHi)
		return nil
	}, colOpts...)
}
