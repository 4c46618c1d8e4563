// Fast sliding-window kernels behind the public Minimum/Maximum/Median
// entry points. The naive per-pixel window scan they are pinned against
// bit-for-bit lives in oracle_test.go.
//
//   - min/max: the van Herk–Gil–Werman two-pass monotone-wedge algorithm,
//     run separably (rows then columns) — O(1) comparisons per sample
//     independent of window size. Because it only compares, its output is
//     bit-identical to the naive window scan for finite inputs.
//   - median: a per-row sliding sorted window — each step removes the
//     leaving column and inserts the entering column by binary search
//     instead of re-collecting and sorting size² samples per pixel. The
//     maintained multiset equals the naive window multiset, so the median
//     is bit-identical for finite inputs.
//
// Both preserve the naive scan's replicate-clamp border semantics and
// OpenCV anchoring exactly: even sizes anchor top-left (offsets [0, size)),
// odd sizes center (offsets [-size/2, size/2]). Scratch buffers are
// allocated once per parallel band and reused across that band's rows or
// columns.
package filtering

import (
	"context"
	"fmt"
	"math"
	"sort"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// windowOffsets returns the OpenCV-anchored tap range [lo, hi] for a window
// of the given size: top-left anchored for even sizes, centered for odd.
func windowOffsets(size int) (lo, hi int) {
	lo = 0
	if size%2 == 1 {
		lo = -(size / 2)
	}
	return lo, lo + size - 1
}

// padClamped fills dst (length n+size-1) with src samples under replicate
// clamping such that the window of output i covers dst[i : i+size]:
// dst[t] = src[clamp(t+lo)] at the given stride.
//
//declint:hot
func padClamped(dst []float64, src []float64, n, stride, lo int) {
	for t := range dst {
		j := t + lo
		if j < 0 {
			j = 0
		} else if j >= n {
			j = n - 1
		}
		dst[t] = src[j*stride]
	}
}

// slidingMin writes out[i] = min(padded[i : i+w]) for every i in
// [0, len(padded)-w+1) using van Herk–Gil–Werman: one backward suffix-wedge
// pass and one forward prefix-wedge pass over blocks of w samples, then a
// single min per output — ~3 comparisons per sample regardless of w.
// wedge is scratch of len(padded).
//
//declint:hot
func slidingMin(out, padded, wedge []float64, w int) {
	p := len(padded)
	if w == 2 {
		// The paper's 2×2 hot path: one comparison per sample beats the
		// wedge bookkeeping.
		for i := range out {
			if padded[i+1] < padded[i] {
				out[i] = padded[i+1]
			} else {
				out[i] = padded[i]
			}
		}
		return
	}
	// Backward pass: wedge[t] = min(padded[t : blockEnd]) within t's block.
	for t := p - 1; t >= 0; t-- {
		if t == p-1 || (t+1)%w == 0 {
			wedge[t] = padded[t]
		} else if padded[t] < wedge[t+1] {
			wedge[t] = padded[t]
		} else {
			wedge[t] = wedge[t+1]
		}
	}
	// Forward pass fused with output: prefix[t] = min(padded[blockStart : t+1]).
	var prefix float64
	for t := 0; t < p; t++ {
		if t%w == 0 {
			prefix = padded[t]
		} else if padded[t] < prefix {
			prefix = padded[t]
		}
		if i := t - w + 1; i >= 0 {
			if wedge[i] < prefix {
				out[i] = wedge[i]
			} else {
				out[i] = prefix
			}
		}
	}
}

// slidingMax is slidingMin with the comparison flipped.
//
//declint:hot
func slidingMax(out, padded, wedge []float64, w int) {
	p := len(padded)
	if w == 2 {
		for i := range out {
			if padded[i+1] > padded[i] {
				out[i] = padded[i+1]
			} else {
				out[i] = padded[i]
			}
		}
		return
	}
	for t := p - 1; t >= 0; t-- {
		if t == p-1 || (t+1)%w == 0 {
			wedge[t] = padded[t]
		} else if padded[t] > wedge[t+1] {
			wedge[t] = padded[t]
		} else {
			wedge[t] = wedge[t+1]
		}
	}
	var prefix float64
	for t := 0; t < p; t++ {
		if t%w == 0 {
			prefix = padded[t]
		} else if padded[t] > prefix {
			prefix = padded[t]
		}
		if i := t - w + 1; i >= 0 {
			if wedge[i] > prefix {
				out[i] = wedge[i]
			} else {
				out[i] = prefix
			}
		}
	}
}

// minMaxFilter is the fast Minimum/Maximum implementation: a horizontal
// vHGW sweep into an intermediate image, then a vertical vHGW sweep.
// Per-axis clamping makes the rectangular window exactly separable:
// extremum over {(clampX(x+dx), clampY(y+dy))} = vertical extremum of
// per-row horizontal extrema.
func minMaxFilter(ctx context.Context, img *imgcore.Image, size int, isMax bool, popts ...parallel.Option) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	lo, _ := windowOffsets(size)
	tmp := img.Clone()
	out := img.Clone()
	pass := slidingMin
	if isMax {
		pass = slidingMax
	}

	// Horizontal: each chunk owns a disjoint band of rows of tmp; scratch is
	// allocated once per band and reused across its rows and channels.
	rowCost := img.W * img.C
	hOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, img.H, func(yLo, yHi int) error {
		padded := make([]float64, img.W+size-1)
		wedge := make([]float64, len(padded))
		line := make([]float64, img.W)
		for y := yLo; y < yHi; y++ {
			for c := 0; c < img.C; c++ {
				padClamped(padded, img.Pix[(y*img.W)*img.C+c:], img.W, img.C, lo)
				pass(line, padded, wedge, size)
				for x := 0; x < img.W; x++ {
					tmp.Pix[(y*img.W+x)*img.C+c] = line[x]
				}
			}
		}
		return nil
	}, hOpts...)
	if err != nil {
		return nil, err
	}

	// Vertical: each chunk owns a disjoint band of columns of out, reading
	// all of tmp; each column is gathered, swept, and scattered through the
	// band's scratch.
	colCost := img.H * img.C
	vOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(colCost, minFilterWork)),
	}, popts...)
	err = parallel.For(ctx, img.W, func(xLo, xHi int) error {
		padded := make([]float64, img.H+size-1)
		wedge := make([]float64, len(padded))
		line := make([]float64, img.H)
		for x := xLo; x < xHi; x++ {
			for c := 0; c < img.C; c++ {
				padClamped(padded, tmp.Pix[x*img.C+c:], img.H, img.W*img.C, lo)
				pass(line, padded, wedge, size)
				for y := 0; y < img.H; y++ {
					out.Pix[(y*img.W+x)*img.C+c] = line[y]
				}
			}
		}
		return nil
	}, vOpts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sortedWindow is the median filter's maintained multiset: the current
// window's samples in sort.Float64s order (NaNs first, then ascending).
type sortedWindow struct {
	vals []float64
}

// reset refills the window from scratch and sorts it.
//
//declint:hot
func (s *sortedWindow) reset(vals []float64) {
	s.vals = append(s.vals[:0], vals...)
	sort.Float64s(s.vals)
}

// find returns the index of one instance of v, located by binary search
// and disambiguated by bit pattern so ±0 and NaN payloads are matched
// precisely. The caller guarantees v is present. Returns -1 if it is not
// (only reachable on contract violation; callers treat it as a no-op).
//
//declint:hot
func (s *sortedWindow) find(v float64) int {
	vb := math.Float64bits(v)
	i := 0
	if !math.IsNaN(v) {
		i = sort.SearchFloat64s(s.vals, v)
	}
	for ; i < len(s.vals); i++ {
		if math.Float64bits(s.vals[i]) == vb {
			return i
		}
	}
	// Bit pattern not found from the search position (ties with a different
	// zero sign sorted earlier, or NaN ordering): linear scan.
	for i = 0; i < len(s.vals); i++ {
		if math.Float64bits(s.vals[i]) == vb {
			return i
		}
	}
	return -1
}

// replace removes one instance of old and inserts new with a single shift
// of the span between the two positions — half the copying of a separate
// remove + insert. NaNs sort to the front, matching sort.Float64s.
//
//declint:hot
func (s *sortedWindow) replace(old, new float64) {
	if math.Float64bits(old) == math.Float64bits(new) {
		// Same sample entering and leaving (frequent at clamped borders):
		// the multiset is unchanged.
		return
	}
	i := s.find(old)
	if i < 0 {
		return
	}
	j := 0
	if !math.IsNaN(new) {
		j = sort.SearchFloat64s(s.vals, new)
	}
	if j > i {
		// new lands to the right of the removed slot: shift the span left.
		copy(s.vals[i:], s.vals[i+1:j])
		s.vals[j-1] = new
	} else {
		// new lands at or left of the removed slot: shift the span right.
		copy(s.vals[j+1:i+1], s.vals[j:i])
		s.vals[j] = new
	}
}

// median returns the window median: the middle element for odd counts,
// the mean of the two middles for even.
//
//declint:hot
func (s *sortedWindow) median() float64 {
	n := len(s.vals)
	if n%2 == 1 {
		return s.vals[n/2]
	}
	return (s.vals[n/2-1] + s.vals[n/2]) / 2
}

// medianFilter is the fast Median implementation: per row, the sorted
// window slides along x — each step removes the leaving column's size
// samples and inserts the entering column's size samples by binary search
// (O(size·(log size + size)) per pixel instead of O(size²·log size)).
func medianFilter(ctx context.Context, img *imgcore.Image, size int, popts ...parallel.Option) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	lo, hi := windowOffsets(size)
	out := img.Clone()
	rowCost := img.W * img.C * size * (size + 4)
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, img.H, func(yLo, yHi int) error {
		// Band-local scratch, reused across every pixel in the band.
		win := sortedWindow{vals: make([]float64, 0, size*size)}
		seed := make([]float64, 0, size*size)
		rows := make([]int, size) // clamped row offsets of the window's rows
		for y := yLo; y < yHi; y++ {
			for k := 0; k < size; k++ {
				yy := y + lo + k
				if yy < 0 {
					yy = 0
				} else if yy >= img.H {
					yy = img.H - 1
				}
				rows[k] = yy * img.W
			}
			for c := 0; c < img.C; c++ {
				// Seed the window at x=0.
				seed = seed[:0]
				for _, base := range rows {
					for dx := lo; dx <= hi; dx++ {
						xx := dx
						if xx < 0 {
							xx = 0
						} else if xx >= img.W {
							xx = img.W - 1
						}
						seed = append(seed, img.Pix[(base+xx)*img.C+c])
					}
				}
				win.reset(seed)
				out.Set(0, y, c, win.median())
				// Slide: replace the column leaving the window with the one
				// entering it. Clamped taps repeat border samples, so the
				// multiset stays exactly the naive window's.
				for x := 1; x < img.W; x++ {
					xm := x - 1 + lo
					if xm < 0 {
						xm = 0
					} else if xm >= img.W {
						xm = img.W - 1
					}
					xp := x + hi
					if xp >= img.W {
						xp = img.W - 1
					}
					for _, base := range rows {
						win.replace(img.Pix[(base+xm)*img.C+c], img.Pix[(base+xp)*img.C+c])
					}
					out.Set(x, y, c, win.median())
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
