package filtering

// The naive per-pixel window scan: the reference the fast Minimum,
// Maximum and Median kernels are pinned against bit-for-bit, and the
// baseline their benchmarks measure speedups from. It has no production
// caller.

import (
	"context"
	"fmt"
	"sort"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

func pickMin(buf []float64) float64 {
	m := buf[0]
	for _, v := range buf[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func pickMax(buf []float64) float64 {
	m := buf[0]
	for _, v := range buf[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func pickMedian(buf []float64) float64 {
	sort.Float64s(buf)
	n := len(buf)
	if n%2 == 1 {
		return buf[n/2]
	}
	return (buf[n/2-1] + buf[n/2]) / 2
}

// rankFilter runs a generic sliding-window reduction — the naive O(size²)
// per-pixel reference the fast kernels in fast.go are pinned against.
// Window anchoring follows the OpenCV convention: for even sizes the
// anchor is the top-left sample of the window (offsets [0, size)), for
// odd sizes the window is centered (offsets [-size/2, size/2]). Rows are
// processed in parallel bands; pick must therefore be a pure function of
// its buffer. The window buffer is allocated once per band at its full
// size² length and refilled in place across every pixel of the band, so
// the sweep itself never reallocates.
func rankFilter(ctx context.Context, img *imgcore.Image, size int, pick func([]float64) float64, popts ...parallel.Option) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	lo, hi := windowOffsets(size)

	out := img.Clone()
	rowCost := img.W * img.C * size * size
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, img.H, func(yLo, yHi int) error {
		buf := make([]float64, size*size)
		for y := yLo; y < yHi; y++ {
			for x := 0; x < img.W; x++ {
				for c := 0; c < img.C; c++ {
					k := 0
					for dy := lo; dy <= hi; dy++ {
						for dx := lo; dx <= hi; dx++ {
							buf[k] = img.AtClamped(x+dx, y+dy, c)
							k++
						}
					}
					out.Set(x, y, c, pick(buf))
				}
			}
		}
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
