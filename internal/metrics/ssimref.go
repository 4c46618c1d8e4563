package metrics

import (
	"context"
	"fmt"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// SSIMRef is a prepared SSIM reference: the luminance plane, local means
// and local second moments of one image, precomputed so the image can be
// scored against many comparands without re-deriving its side of the
// computation. The detection pipeline builds one SSIMRef per input image
// and scores every method's reconstruction against it.
//
// Both sides run the streaming fused kernel (fused.go): the reference
// carries μa and E[a²] into whole planes once, and each score streams μb,
// E[b²] and E[ab] a row at a time, folding them with the reference rows
// into per-pixel terms. Every moment sample sees the products and taps of
// a whole-plane separable blur in the same order, so scores are
// bit-identical to the five-blur formulation.
//
// A reference is safe for concurrent ScoreCtx calls: they only read the
// shared planes, and each borrows its own term plane. Release returns the
// buffers to the scratch pool; the reference must not be used afterwards.
type SSIMRef struct {
	opts SSIMOptions
	w, h int
	kern []float64
	ga   []float64 // luminance plane of the reference
	muA  []float64 // Gaussian local means of ga
	sAA  []float64 // Gaussian local means of ga²
	pins []*[]float64
}

// NewSSIMRef precomputes the reference side of an SSIM comparison against a.
//
//declint:owns
func NewSSIMRef(ctx context.Context, a *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (*SSIMRef, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	w, h := a.W, a.H
	n := w * h
	r := &SSIMRef{opts: opts, w: w, h: h, kern: kernelFor(opts.WindowRadius, opts.Sigma)}
	// Own a copy of the luminance plane: the reference must stay valid if
	// the caller mutates or recycles a.
	gap, muAp, sAAp := getScratch(n), getScratch(n), getScratch(n)
	r.pins = append(r.pins, gap, muAp, sAAp)
	r.ga, r.muA, r.sAA = *gap, *muAp, *sAAp
	if a.C == 1 {
		copy(r.ga, a.Pix)
	} else {
		grayLine(r.ga, a.Pix)
	}
	p := fusedPass{kind: fusedRef, w: w, h: h, kern: r.kern, src: r.ga, srcC: 1, muA: r.muA, sAA: r.sAA}
	if err := p.run(ctx, popts); err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

// Size returns the reference geometry.
func (r *SSIMRef) Size() (w, h int) { return r.w, r.h }

// Score is ScoreCtx without cancellation.
//
//declint:nan-ok delegates to ScoreCtx, whose Validate runs first
func (r *SSIMRef) Score(b *imgcore.Image) (float64, error) {
	return r.ScoreCtx(context.Background(), b)
}

// ScoreCtx returns the mean SSIM index between the reference image and b,
// bit-identical to SSIMWith(a, b, opts). Unlike SSIMWith, only the W×H
// geometry must match: both sides are scored on their luminance planes, so
// a reference built from a single-channel image can score multi-channel
// comparands of the same geometry (the pipeline scores RGB round-trips
// against the shared grayscale plane this way).
//
// The per-pixel terms land in one pooled plane that is summed serially in
// ascending order after the bands finish, so the score is the same for
// every worker count.
func (r *SSIMRef) ScoreCtx(ctx context.Context, b *imgcore.Image, popts ...parallel.Option) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if b.W != r.w || b.H != r.h {
		return 0, fmt.Errorf("%w: ref %dx%d vs %v", ErrShapeMismatch, r.w, r.h, b)
	}
	termP := getScratch(r.w * r.h)
	defer putScratch(termP)
	term := *termP
	p := fusedPass{
		kind: fusedScore, w: r.w, h: r.h, kern: r.kern,
		src: b.Pix, srcC: b.C, ga: r.ga, muA: r.muA, sAA: r.sAA, term: term,
		c1: (r.opts.K1 * r.opts.L) * (r.opts.K1 * r.opts.L),
		c2: (r.opts.K2 * r.opts.L) * (r.opts.K2 * r.opts.L),
	}
	if err := p.run(ctx, popts); err != nil {
		return 0, err
	}
	var sum float64
	for _, t := range term {
		sum += t
	}
	return sum / float64(len(term)), nil
}

// Release returns the reference's pooled buffers to the scratch pool. The
// reference must not be scored against after Release; calling Release more
// than once is a no-op.
//
//declint:transfers receiver
func (r *SSIMRef) Release() {
	for _, p := range r.pins {
		putScratch(p)
	}
	r.pins = nil
	r.ga, r.muA, r.sAA = nil, nil, nil
}
