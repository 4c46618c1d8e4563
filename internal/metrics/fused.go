package metrics

import (
	"context"
	"unsafe"

	"decamouflage/internal/parallel"
)

// The streaming fused Gaussian kernel behind GaussianBlur, NewSSIMRef and
// SSIMRef.ScoreCtx.
//
// A separable Gaussian is a horizontal pass over every source row followed
// by a vertical pass over every output row, and output row y reads only the
// horizontally filtered source rows y-r … y+r. So instead of blurring whole
// planes one moment at a time, a pass walks a band of output rows once:
// each source row is filtered horizontally, for every moment the caller
// needs (the products b², a·b are formed a row at a time), into a ring of
// the 2r+1 most recent rows per moment; each output row then sums its taps
// over the ring rows and is consumed at once — written to a moment plane,
// or, when scoring, folded straight into its per-pixel SSIM terms.
//
// Bit-identity with the five whole-plane blurs this replaces: every sample
// sees the same products, its horizontal taps in ascending order (the same
// row kernel), and its vertical taps in ascending order from a zero start,
// and the SSIM term uses the same combine expression. Bands recompute their
// r-row halo rather than share it, and a recomputed row is bit-identical
// to the original, so band boundaries — and therefore worker counts — do
// not change any output bit.

// fusedKind selects the moments one streaming pass carries.
type fusedKind uint8

const (
	fusedBlur  fusedKind = iota // the plane itself (GaussianBlur)
	fusedRef                    // a and a² (NewSSIMRef)
	fusedScore                  // b, b² and a·b, folded into SSIM terms (ScoreCtx)
)

// moments returns the number of Gaussian moment rows the pass keeps per
// source row.
func (k fusedKind) moments() int { return int(k) + 1 }

// fusedPass is one streaming separable Gaussian over a w×h geometry.
type fusedPass struct {
	kind fusedKind
	w, h int
	kern []float64
	// src holds the plane blurred (blur, ref) or the comparand (score) with
	// srcC interleaved channels; a 3-channel source is converted to
	// luminance a row at a time.
	src  []float64
	srcC int
	// ga is the reference luminance the score's a·b products read.
	ga []float64
	// dst receives a blur. muA and sAA receive a reference's μa and E[a²],
	// and are what a score combines with its own moments; term receives
	// the score's per-pixel SSIM terms.
	dst, muA, sAA, term []float64
	c1, c2              float64
}

// minBandWork is the per-band work (in kernel-weighted samples) below
// which a pass stays on the calling goroutine.
const minBandWork = 1 << 14

// run executes the pass over all output rows in parallel bands. Bands are
// sized so every worker gets about two of them — each band recomputes its
// 2r-row halo, so more, thinner bands would only add horizontal work — and
// a single worker walks the whole plane as one band. popts go last, so a
// caller's Grain overrides the band height.
func (p *fusedPass) run(ctx context.Context, popts []parallel.Option) error {
	r := len(p.kern) / 2
	grain := p.h
	if workers := parallel.DefaultWorkers(); workers > 1 {
		grain = (p.h + 2*workers - 1) / (2 * workers)
		grain = max(grain, 4*r, parallel.GrainForWidth(p.w*len(p.kern)*p.kind.moments(), minBandWork))
	}
	opts := append([]parallel.Option{parallel.Grain(grain)}, popts...)
	return parallel.For(ctx, p.h, func(yLo, yHi int) error {
		p.band(yLo, yHi)
		return nil
	}, opts...)
}

// momentRing holds, for every moment, the horizontally filtered source
// rows a band currently needs: source row sy lives in slot sy mod rows.
// Output row y needs at most min(2r+1, h) consecutive source rows, so the
// slots never collide.
type momentRing struct {
	buf     []float64
	rows, w int
}

// row returns moment m's slot for source row sy.
func (g momentRing) row(m, sy int) []float64 {
	o := (m*g.rows + sy%g.rows) * g.w
	return g.buf[o : o+g.w]
}

// band computes output rows [yLo, yHi). Its ring, luminance/product lines
// and score accumulators come from one pooled buffer.
func (p *fusedPass) band(yLo, yHi int) {
	w, h, r := p.w, p.h, len(p.kern)/2
	ring := momentRing{rows: min(2*r+1, h), w: w}
	size := p.kind.moments() * ring.rows * w
	bufP := getBand(size + 5*w)
	defer putBand(bufP)
	buf := *bufP
	ring.buf = buf[:size]
	gray, prod, acc := buf[size:size+w], buf[size+w:size+2*w], buf[size+2*w:size+5*w]

	next := max(0, yLo-r) // next source row to filter into the ring
	for y := yLo; y < yHi; y++ {
		for last := min(h-1, y+r); next <= last; next++ {
			p.filterRow(ring, gray, prod, next)
		}
		p.emitRow(ring, acc, y)
	}
}

// filterRow runs the horizontal pass of source row sy for every moment.
func (p *fusedPass) filterRow(ring momentRing, gray, prod []float64, sy int) {
	w := p.w
	row := p.src[sy*w*p.srcC : (sy+1)*w*p.srcC]
	if p.srcC != 1 {
		grayLine(gray, row)
		row = gray
	}
	convolveLine(ring.row(0, sy), row, p.kern)
	if p.kind == fusedBlur {
		return
	}
	mulLine(prod, row, row)
	convolveLine(ring.row(1, sy), prod, p.kern)
	if p.kind == fusedScore {
		mulLine(prod, p.ga[sy*w:(sy+1)*w], row)
		convolveLine(ring.row(2, sy), prod, p.kern)
	}
}

// emitRow runs the vertical pass of output row y for every moment and
// hands the rows to their consumer.
func (p *fusedPass) emitRow(ring momentRing, acc []float64, y int) {
	w := p.w
	out := y * w
	switch p.kind {
	case fusedBlur:
		p.verticalRow(p.dst[out:out+w], ring, 0, y)
	case fusedRef:
		p.verticalRow(p.muA[out:out+w], ring, 0, y)
		p.verticalRow(p.sAA[out:out+w], ring, 1, y)
	case fusedScore:
		muB, sBB, sAB := acc[:w], acc[w:2*w], acc[2*w:3*w]
		p.verticalRow(muB, ring, 0, y)
		p.verticalRow(sBB, ring, 1, y)
		p.verticalRow(sAB, ring, 2, y)
		ssimTermLine(p.term[out:out+w], p.muA[out:out+w], p.sAA[out:out+w], muB, sBB, sAB, p.c1, p.c2)
	}
}

// verticalRow sums moment m's taps for output row y into dst, tap-outer
// over the ring rows (clamped to the plane: replicate borders).
func (p *fusedPass) verticalRow(dst []float64, ring momentRing, m, y int) {
	h, r := p.h, len(p.kern)/2
	sumTaps(dst, p.kern, func(k int) []float64 {
		return ring.row(m, min(max(y-r+k, 0), h-1))
	})
}

// sumTaps sets dst[x] = Σ_k kern[k]·tap(k)[x], adding the taps in
// ascending k onto a zero start — per sample exactly the additions, in
// exactly the order, of the scalar loop `s += kern[k]*v` — in sweeps of
// up to four taps over dst.
func sumTaps(dst, kern []float64, tap func(k int) []float64) {
	clear(dst)
	k := 0
	for ; k+3 < len(kern); k += 4 {
		accumulate4(dst, tap(k), tap(k+1), tap(k+2), tap(k+3), kern[k], kern[k+1], kern[k+2], kern[k+3])
	}
	if k+2 < len(kern) {
		accumulate3(dst, tap(k), tap(k+1), tap(k+2), kern[k], kern[k+1], kern[k+2])
		k += 3
	}
	for ; k < len(kern); k++ {
		accumulate1(dst, tap(k), kern[k])
	}
}

// accumulate4 adds four weighted rows to dst, in argument order per sample.
//
//declint:hot
func accumulate4(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for x := range dst {
		dst[x] = dst[x] + c0*r0[x] + c1*r1[x] + c2*r2[x] + c3*r3[x]
	}
}

// accumulate3 adds three weighted rows to dst, in argument order per
// sample.
//
//declint:hot
func accumulate3(dst, r0, r1, r2 []float64, c0, c1, c2 float64) {
	r0, r1, r2 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)]
	for x := range dst {
		dst[x] = dst[x] + c0*r0[x] + c1*r1[x] + c2*r2[x]
	}
}

// accumulate1 adds one weighted row to dst.
//
//declint:hot
func accumulate1(dst, row []float64, c float64) {
	row = row[:len(dst)]
	for x := range dst {
		dst[x] += c * row[x]
	}
}

// ssimTermLine writes one row of per-pixel SSIM terms from the local
// moments of both sides.
//
//declint:hot
func ssimTermLine(term, muA, sAA, muB, sBB, sAB []float64, c1, c2 float64) {
	muA, sAA = muA[:len(term)], sAA[:len(term)]
	muB, sBB, sAB = muB[:len(term)], sBB[:len(term)], sAB[:len(term)]
	for x := range term {
		ma, mb := muA[x], muB[x]
		varA := sAA[x] - ma*ma
		varB := sBB[x] - mb*mb
		cov := sAB[x] - ma*mb
		num := (2*ma*mb + c1) * (2*cov + c2)
		den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
		term[x] = num / den
	}
}

// mulLine writes the per-sample products a·b into dst.
//
//declint:hot
func mulLine(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for x := range dst {
		dst[x] = a[x] * b[x]
	}
}

// grayLine converts one row of interleaved RGB samples to luminance with
// the BT.601 weights of imgcore's Gray.
//
//declint:hot
func grayLine(dst, rgb []float64) {
	rgb = rgb[:3*len(dst)]
	for x := range dst {
		px := rgb[3*x : 3*x+3 : 3*x+3]
		dst[x] = 0.299*px[0] + 0.587*px[1] + 0.114*px[2]
	}
}

// convolveLine writes row convolved with kern under replicate clamping
// into out. Columns [lo, hi) have the kernel fully inside the row and
// run as tap-outer sweeps over shifted windows of the row; the clamped
// edge columns sum their taps directly. Both add the taps in ascending k
// from zero, so every sample is bit-identical to the clamped scalar loop.
func convolveLine(out, row, kern []float64) {
	w, r := len(row), len(kern)/2
	lo := min(r, w)
	hi := max(w-r, lo)
	for x := 0; x < lo; x++ {
		out[x] = convolveClampedAt(row, w, kern, r, x)
	}
	if n := hi - lo; n > 0 {
		sumTaps(out[lo:hi], kern, func(k int) []float64 { return row[lo-r+k : lo-r+k+n] })
	}
	for x := hi; x < w; x++ {
		out[x] = convolveClampedAt(row, w, kern, r, x)
	}
}

// overlaps reports whether a and b share any backing memory.
func overlaps(a, b []float64) bool {
	const size = unsafe.Sizeof(float64(0))
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b))*size && pb < pa+uintptr(len(a))*size
}
