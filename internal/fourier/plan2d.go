// 2-D transform plans. A Plan2D bundles the row- and column-direction 1-D
// plans of a forward 2-D DFT for one geometry, so callers that transform
// many same-sized signals (the detection pipeline scoring a batch of
// images) resolve the plan cache once per geometry instead of twice per
// image.
//
// CenteredSpectrumInto is the package's one centered-spectrum
// implementation (CenteredSpectrum and CenteredSpectrumWith delegate to
// it). The input plane is real, so its 2-D DFT is Hermitian:
// F[y][x] = conj(F[(h-y)%h][(w-x)%w]). The transform packs two real rows
// into each complex row transform, unpacks the Hermitian half (w/2+1
// columns), runs the column pass on that half only, and mirrors each
// half-plane bin's log(1+|F|) into the centred plane. Contract: the output
// matches the complex-input spectrum (log-magnitude of the shifted complex
// FFT2D, max-normalized) within 1e-12 on the [0, 1] scale (pinned by
// TestRealSpectrumMatchesComplexPath), and is bit-identical across worker
// counts and repeated pooled calls.
package fourier

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"decamouflage/internal/parallel"
)

// Plan2D is an immutable forward 2-D DFT descriptor for one (W, H)
// geometry. It is safe for concurrent use, like the 1-D plans it bundles.
type Plan2D struct {
	row *Plan // length W, forward
	col *Plan // length H, forward
}

// Plan2DFor returns the forward 2-D plan for a w×h signal, drawing both
// axis plans from the shared plan cache (PlanFor).
func Plan2DFor(w, h int) (*Plan2D, error) {
	row, err := PlanFor(w, false)
	if err != nil {
		return nil, err
	}
	col, err := PlanFor(h, false)
	if err != nil {
		return nil, err
	}
	return &Plan2D{row: row, col: col}, nil
}

// Size returns the geometry the plan was built for.
func (p *Plan2D) Size() (w, h int) { return p.row.N(), p.col.N() }

// CenteredSpectrumWith is CenteredSpectrum executing through a prepared
// plan and honouring ctx cancellation in its parallel passes. A nil plan
// resolves one from the shared cache; a non-nil plan must match (w, h).
func CenteredSpectrumWith(ctx context.Context, p *Plan2D, data []float64, w, h int) ([]float64, error) {
	if len(data) != w*h {
		return nil, fmt.Errorf("fourier: data length %d does not match %dx%d", len(data), w, h)
	}
	if p == nil {
		var err error
		if p, err = Plan2DFor(w, h); err != nil {
			return nil, err
		}
	} else if pw, ph := p.Size(); pw != w || ph != h {
		return nil, fmt.Errorf("fourier: plan geometry %dx%d does not match signal %dx%d", pw, ph, w, h)
	}
	dst := make([]float64, w*h)
	if err := p.CenteredSpectrumInto(ctx, data, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// specScratch pools the Hermitian half-plane buffers of
// CenteredSpectrumInto, so a batch of same-geometry spectra allocates its
// transform state once, not per image.
var specScratch = sync.Pool{New: func() any { return new([]complex128) }}

// CenteredSpectrumInto computes the centered log-magnitude spectrum of a
// real (w×h) signal into dst, both sized to the plan's geometry: the 2-D
// DFT, fftshift, log(1+|F|), normalized to [0, 1] by its maximum (the
// paper's Eq. 4 spectrum intensity). Row pairs, column tiles and the
// normalization run in parallel bands; ctx cancels between chunks.
func (p *Plan2D) CenteredSpectrumInto(ctx context.Context, data []float64, dst []float64) error {
	return p.centeredSpectrumInto(ctx, data, dst)
}

// centeredSpectrumInto is CenteredSpectrumInto with parallel options
// threaded through for the serial-vs-parallel equivalence tests.
func (p *Plan2D) centeredSpectrumInto(ctx context.Context, data, dst []float64, opts ...parallel.Option) error {
	w, h := p.Size()
	if len(data) != w*h {
		return fmt.Errorf("fourier: data length %d does not match plan geometry %dx%d", len(data), w, h)
	}
	if len(dst) != w*h {
		return fmt.Errorf("fourier: dst length %d does not match plan geometry %dx%d", len(dst), w, h)
	}
	hw := w/2 + 1
	bp := specScratch.Get().(*[]complex128)
	defer specScratch.Put(bp)
	half := *bp
	if cap(half) < hw*h {
		half = make([]complex128, hw*h)
		*bp = half
	}
	half = half[:hw*h]
	if err := p.realRows(ctx, data, half, opts); err != nil {
		return err
	}
	colMax := make([]float64, hw)
	if err := p.logMagColumns(ctx, half, dst, colMax, opts); err != nil {
		return err
	}
	var mx float64
	for _, v := range colMax {
		if v > mx {
			mx = v
		}
	}
	if mx <= 0 {
		return nil
	}
	inv := 1 / mx
	normOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, h, func(lo, hi int) error {
		band := dst[lo*w : hi*w]
		for i := range band {
			band[i] *= inv
		}
		return nil
	}, normOpts...)
}

// realRows writes the Hermitian half (columns 0..w/2) of every row's DFT
// into half (row stride w/2+1). Rows 2j and 2j+1 share one complex
// transform of z = a + i·b, split by A[k] = (Z[k] + conj Z[w-k])/2 and
// B[k] = (Z[k] - conj Z[w-k])/2i; an odd h leaves the last row to a
// transform of its own.
func (p *Plan2D) realRows(ctx context.Context, data []float64, half []complex128, opts []parallel.Option) error {
	w, h := p.Size()
	hw := w/2 + 1
	rowOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(2*w, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, (h+1)/2, func(lo, hi int) error {
		zp := colScratch.Get().(*[]complex128)
		defer colScratch.Put(zp)
		z := *zp
		if cap(z) < w {
			z = make([]complex128, w)
			*zp = z
		}
		z = z[:w]
		for y := 2 * lo; y < 2*hi && y < h; y += 2 {
			a := data[y*w : (y+1)*w]
			ha := half[y*hw : (y+1)*hw]
			if y+1 == h {
				for x, v := range a {
					z[x] = complex(v, 0)
				}
				if err := p.row.Transform(z); err != nil {
					return err
				}
				copy(ha, z)
				continue
			}
			b := data[(y+1)*w : (y+2)*w]
			for x, v := range a {
				z[x] = complex(v, b[x])
			}
			if err := p.row.Transform(z); err != nil {
				return err
			}
			unpackPair(ha, half[(y+1)*hw:(y+2)*hw], z)
		}
		return nil
	}, rowOpts...)
}

// logMagColumns runs the column pass over the Hermitian half-plane (row
// stride w/2+1) and writes log(1+|F|) of every bin, and of its mirror
// image, into the centred plane dst; colMax[x] receives column x's largest
// value.
func (p *Plan2D) logMagColumns(ctx context.Context, half []complex128, dst, colMax []float64, opts []parallel.Option) error {
	w, h := p.Size()
	return columnTiles(ctx, half, len(colMax), h, p.col, func(tile []complex128, x0, nb int) {
		logMagTile(dst, tile, colMax[x0:x0+nb], w, h, x0)
	}, opts)
}

// unpackPair splits the DFT z of a + i·b (a, b real) into the half
// spectra of a and b: ha[k] = (z[k] + conj z[-k])/2 and
// hb[k] = (z[k] - conj z[-k])/2i, indices mod len(z).
//
//declint:hot
func unpackPair(ha, hb, z []complex128) {
	w := len(z)
	for k := range ha {
		zk, zm := z[k], z[(w-k)%w]
		ha[k] = complex(0.5*(real(zk)+real(zm)), 0.5*(imag(zk)-imag(zm)))
		hb[k] = complex(0.5*(imag(zk)+imag(zm)), 0.5*(real(zm)-real(zk)))
	}
}

// logMagTile writes log(1+|F|) of a tile of transformed half-plane
// columns x0.. (column-major, len(colMax) columns of h) into the centred
// w×h plane dst, and records each column's maximum in colMax. Column x
// lands at centred column (x + w/2) % w; for 0 < x < w/2 (strictly) the
// Hermitian mirror F[(h-y)%h][w-x] = conj F[y][x] fills column w-x with
// the same value. It evaluates log(1+|F|) as math.Log(1 + |F|) rather
// than math.Log1p: Log has an assembly fast path, and where Log1p would be
// more accurate (tiny |F|) the absolute difference stays below 2⁻⁵².
//
//declint:hot
func logMagTile(dst []float64, tile []complex128, colMax []float64, w, h, x0 int) {
	var cx, mx [colBlock]int
	nb := len(colMax)
	for k := 0; k < nb; k++ {
		x := x0 + k
		cx[k] = (x + w/2) % w
		mx[k] = -1
		if x > 0 && 2*x < w {
			mx[k] = (w - x + w/2) % w
		}
	}
	for y := 0; y < h; y++ {
		row := dst[((y+h/2)%h)*w:][:w]
		mirror := dst[(((h-y)%h+h/2)%h)*w:][:w]
		for k := 0; k < nb; k++ {
			v := math.Log(1 + cmplx.Abs(tile[k*h+y]))
			row[cx[k]] = v
			if mx[k] >= 0 {
				mirror[mx[k]] = v
			}
			if v > colMax[k] {
				colMax[k] = v
			}
		}
	}
}

// transform2DWith is transform2D with both axis plans supplied by the
// caller; transform2D resolves them from the cache and delegates here.
func transform2DWith(ctx context.Context, m *Matrix, rowPlan, colPlan *Plan, opts ...parallel.Option) (*Matrix, error) {
	out := &Matrix{W: m.W, H: m.H, Data: append([]complex128(nil), m.Data...)}
	if err := transformPasses(ctx, out.Data, m.W, m.H, rowPlan, colPlan, opts...); err != nil {
		return nil, err
	}
	return out, nil
}

// colBlock is the number of columns gathered per transpose tile in the
// blocked column pass: each tile reads colBlock contiguous elements per
// row (one cache line of complex128s) instead of striding the full matrix
// once per column.
const colBlock = 8

// transformPasses runs the forward-or-inverse 2-D passes in place on a
// row-major (w×h) complex signal: rows first, then columns through
// cache-blocked transposes. Each column chunk gathers a tile of up to
// colBlock columns into pooled column-major scratch — walking the matrix
// row by row, so every row read is contiguous — transforms each gathered
// column in place, and scatters the tile back the same way. The per-column
// arithmetic does not depend on the tiling, so results are bit-identical
// to a one-column-at-a-time pass (pinned by the blocked-vs-reference
// equivalence test).
func transformPasses(ctx context.Context, data []complex128, w, h int, rowPlan, colPlan *Plan, opts ...parallel.Option) error {
	// Rows: each chunk transforms a disjoint band of rows in place.
	rowOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w, minTransformWork)),
	}, opts...)
	err := parallel.For(ctx, h, func(lo, hi int) error {
		for y := lo; y < hi; y++ {
			if err := rowPlan.Transform(data[y*w : (y+1)*w]); err != nil {
				return err
			}
		}
		return nil
	}, rowOpts...)
	if err != nil {
		return err
	}
	return columnTiles(ctx, data, w, h, colPlan, func(tile []complex128, x0, nb int) {
		scatterColumns(data, tile, w, h, x0, nb)
	}, opts)
}

// columnTiles transforms every column of a row-major (w×h) complex matrix
// through colPlan, colBlock columns at a time: each chunk gathers a tile
// into pooled column-major scratch, transforms each column in place and
// hands the tile, its first column and its width to emit. Chunks own
// disjoint column bands, and a column's arithmetic does not depend on the
// tiling.
func columnTiles(ctx context.Context, data []complex128, w, h int, colPlan *Plan, emit func(tile []complex128, x0, nb int), opts []parallel.Option) error {
	colOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, w, func(lo, hi int) error {
		cp := colScratch.Get().(*[]complex128)
		defer colScratch.Put(cp)
		tile := *cp
		if cap(tile) < colBlock*h {
			tile = make([]complex128, colBlock*h)
			*cp = tile
		}
		tile = tile[:colBlock*h]
		for x0 := lo; x0 < hi; x0 += colBlock {
			nb := min(colBlock, hi-x0)
			gatherColumns(tile, data, w, h, x0, nb)
			for k := 0; k < nb; k++ {
				if err := colPlan.Transform(tile[k*h : (k+1)*h]); err != nil {
					return err
				}
			}
			emit(tile, x0, nb)
		}
		return nil
	}, colOpts...)
}

// gatherColumns copies columns [x0, x0+nb) of a row-major (w×h) matrix
// into column-major tile storage: tile[k*h+y] = data[y*w+x0+k]. The
// outer loop walks rows, so each iteration reads nb contiguous elements.
//
//declint:hot
func gatherColumns(tile, data []complex128, w, h, x0, nb int) {
	for y := 0; y < h; y++ {
		row := data[y*w+x0 : y*w+x0+nb]
		for k, v := range row {
			tile[k*h+y] = v
		}
	}
}

// scatterColumns is the inverse of gatherColumns: it writes the tile's
// columns back into rows of the row-major matrix.
//
//declint:hot
func scatterColumns(data, tile []complex128, w, h, x0, nb int) {
	for y := 0; y < h; y++ {
		row := data[y*w+x0 : y*w+x0+nb]
		for k := range row {
			row[k] = tile[k*h+y]
		}
	}
}
