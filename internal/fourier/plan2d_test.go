package fourier

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// TestBlockedColumnsBitEqualReference pins the cache-blocked column pass
// against the retained one-column-at-a-time reference: identical
// arithmetic in a different memory walk must produce bit-identical
// spectra. Geometries cover tile-boundary cases — widths below, at and
// off multiples of colBlock — plus Bluestein (non-power-of-two) heights.
func TestBlockedColumnsBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	geoms := []struct{ w, h int }{
		{1, 8},   // single column
		{3, 16},  // narrower than one tile
		{8, 8},   // exactly one tile
		{9, 8},   // one tile plus one column
		{16, 32}, // whole tiles
		{23, 17}, // Bluestein on both axes, ragged tiles
		{64, 48},
	}
	for _, g := range geoms {
		data := randComplex(rng, g.w*g.h)
		rowPlan, err := PlanFor(g.w, false)
		if err != nil {
			t.Fatal(err)
		}
		colPlan, err := PlanFor(g.h, false)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: shared row pass, then the per-column pass.
		want := append([]complex128(nil), data...)
		for y := 0; y < g.h; y++ {
			if err := rowPlan.Transform(want[y*g.w : (y+1)*g.w]); err != nil {
				t.Fatal(err)
			}
		}
		if err := transformColumnsReference(context.Background(), want, g.w, g.h, colPlan); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), data...)
		if err := transformPasses(context.Background(), got, g.w, g.h, rowPlan, colPlan); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: element %d: blocked %v vs reference %v", g.w, g.h, i, got[i], want[i])
			}
		}
	}
}

// TestCenteredSpectrumIntoBitEqualUnplanned pins the fused pooled path
// against the composed CenteredSpectrum across geometries and repeated
// pooled executions (the DetectBatch shape: one plan, many images).
func TestCenteredSpectrumIntoBitEqualUnplanned(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, g := range []struct{ w, h int }{{8, 8}, {17, 9}, {32, 32}, {23, 41}} {
		p, err := Plan2DFor(g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, g.w*g.h)
		for rep := 0; rep < 3; rep++ {
			data := make([]float64, g.w*g.h)
			for i := range data {
				data[i] = rng.Float64() * 255
			}
			want, err := CenteredSpectrum(data, g.w, g.h)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CenteredSpectrumInto(context.Background(), data, dst); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(dst, want); i != -1 {
				t.Fatalf("%dx%d rep %d: sample %d: fused %v vs composed %v",
					g.w, g.h, rep, i, dst[i], want[i])
			}
		}
	}
}

// TestCenteredSpectrumIntoValidation pins the length checks of the fused
// entry point and the geometry check of CenteredSpectrumWith.
func TestCenteredSpectrumIntoValidation(t *testing.T) {
	p, err := Plan2DFor(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, 64)
	if err := p.CenteredSpectrumInto(context.Background(), make([]float64, 63), good); err == nil {
		t.Error("short data accepted")
	}
	if err := p.CenteredSpectrumInto(context.Background(), good, make([]float64, 65)); err == nil {
		t.Error("long dst accepted")
	}
	// Same element count, wrong geometry: the explicit plan check in
	// CenteredSpectrumWith must reject it.
	if _, err := CenteredSpectrumWith(context.Background(), p, make([]float64, 64), 4, 16); err == nil {
		t.Error("geometry-mismatched plan accepted")
	}
	if _, err := CenteredSpectrumWith(context.Background(), nil, good, 8, 9); err == nil {
		t.Error("mismatched data length accepted")
	}
	// Nil plan resolves from the cache and must match the composed path.
	got, err := CenteredSpectrumWith(context.Background(), nil, good, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CenteredSpectrum(good, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if i := testutil.FirstDiff(got, want); i != -1 {
		t.Fatalf("nil-plan sample %d differs", i)
	}
}

// benchmarkColumns2D times a full planned 2-D transform at 256×256 with
// the given column pass, single worker.
func benchmarkColumns2D(b *testing.B, blocked bool) {
	rng := rand.New(rand.NewSource(93))
	data := randComplex(rng, 256*256)
	rowPlan, err := PlanFor(256, false)
	if err != nil {
		b.Fatal(err)
	}
	colPlan, err := PlanFor(256, false)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]complex128, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, data)
		if blocked {
			if err := transformPasses(context.Background(), buf, 256, 256, rowPlan, colPlan, parallel.Workers(1)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for y := 0; y < 256; y++ {
			if err := rowPlan.Transform(buf[y*256 : (y+1)*256]); err != nil {
				b.Fatal(err)
			}
		}
		if err := transformColumnsReference(context.Background(), buf, 256, 256, colPlan, parallel.Workers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT2DBlocked256 is the cache-blocked column pass; its baseline
// is BenchmarkFFT2DPerColumn256.
func BenchmarkFFT2DBlocked256(b *testing.B) { benchmarkColumns2D(b, true) }

// BenchmarkFFT2DPerColumn256 is the one-column-at-a-time reference pass.
func BenchmarkFFT2DPerColumn256(b *testing.B) { benchmarkColumns2D(b, false) }

// BenchmarkCenteredSpectrumInto256 is the production spectrum path — one
// plan, real-input transform, pooled half-plane scratch, fused tail —
// against the composed complex-input BenchmarkCenteredSpectrum256
// baseline.
func BenchmarkCenteredSpectrumInto256(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	data := make([]float64, 256*256)
	for i := range data {
		data[i] = rng.Float64() * 255
	}
	p, err := Plan2DFor(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.CenteredSpectrumInto(context.Background(), data, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCenteredSpectrum256 is the composed complex-input spectrum
// (complexCenteredSpectrum: FromReal, FFT2D, shift, log-magnitude and
// normalization as separate allocating passes), the reference the real-input
// path is pinned against.
func BenchmarkCenteredSpectrum256(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	data := make([]float64, 256*256)
	for i := range data {
		data[i] = rng.Float64() * 255
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := complexCenteredSpectrum(data, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// realSpectrumTol bounds the real-input spectrum's deviation from the
// complex-input oracle on the [0, 1]-normalized plane, for the seeded
// noise planes below. Measured deviations are ~1e-15 at small geometries
// and ~1e-13 at 1024×768.
const realSpectrumTol = 1e-12

// randomPlane fills a w×h plane with 8-bit-range noise.
func randomPlane(rng *rand.Rand, w, h int) []float64 {
	data := make([]float64, w*h)
	for i := range data {
		data[i] = math.Round(rng.Float64() * 255)
	}
	return data
}

// maxAbsDiff returns max |a[i]-b[i]| and its index.
func maxAbsDiff(a, b []float64) (float64, int) {
	worst, at := 0.0, -1
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || at < 0 {
			worst, at = d, i
		}
	}
	return worst, at
}

// TestRealSpectrumMatchesComplexPath pins the real-input spectrum (row
// pairs, Hermitian half, mirrored log-magnitude) against the complex-input
// oracle: full complex FFT2D, shift, log-magnitude, normalize. Geometries
// cover even and odd w and h, an odd h whose last row has no partner,
// single rows and columns, Bluestein axes, and the paper's geometries.
func TestRealSpectrumMatchesComplexPath(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	geoms := []struct{ w, h int }{
		{1, 1}, {1, 2}, {2, 1}, {1, 7}, {9, 1}, {2, 2},
		{8, 8}, {8, 9}, {9, 8}, {9, 9}, {16, 3}, {3, 16},
		{17, 31}, {30, 11}, {23, 41}, {64, 48},
		{800, 600}, {1024, 768}, {768, 1024}, {854, 480},
	}
	for _, g := range geoms {
		data := randomPlane(rng, g.w, g.h)
		want, err := complexCenteredSpectrum(data, g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CenteredSpectrum(data, g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		d, i := maxAbsDiff(got, want)
		if d > realSpectrumTol {
			t.Errorf("%dx%d: sample %d: real path %v vs complex path %v (|Δ| = %.3g > %.0g)",
				g.w, g.h, i, got[i], want[i], d, realSpectrumTol)
		}
		t.Logf("%dx%d: max |Δ| = %.3g", g.w, g.h, d)
	}
}

// TestCenteredSpectrumSerialParallelBitIdentical: the real-input spectrum
// must be bit-identical across worker counts and chunkings, including odd
// heights (unpaired last row) and widths that leave ragged column tiles.
func TestCenteredSpectrumSerialParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, g := range []struct{ w, h int }{{1, 5}, {7, 1}, {9, 7}, {17, 33}, {64, 48}, {100, 75}, {224, 224}} {
		p, err := Plan2DFor(g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		data := randomPlane(rng, g.w, g.h)
		want := make([]float64, len(data))
		if err := p.centeredSpectrumInto(context.Background(), data, want, parallel.Workers(1)); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got := make([]float64, len(data))
			if err := p.centeredSpectrumInto(context.Background(), data, got, parallel.Workers(workers), parallel.Grain(1)); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(got, want); i != -1 {
				t.Fatalf("%dx%d workers=%d: sample %d: %v vs serial %v", g.w, g.h, workers, i, got[i], want[i])
			}
		}
	}
}

// TestCenteredSpectrumIntoCancellation: a cancelled context stops the
// spectrum with the context's error.
func TestCenteredSpectrumIntoCancellation(t *testing.T) {
	p, err := Plan2DFor(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := make([]float64, 64*64)
	if err := p.CenteredSpectrumInto(ctx, data, make([]float64, len(data))); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spectrum returned %v, want context.Canceled", err)
	}
}

// FuzzCenteredSpectrum drives the real-input spectrum with arbitrary
// small geometries and byte planes. It must never panic, must stay in
// [0, 1], and must match the complex-input oracle within the rounding
// bound of a length-N FFT: each bin is a sum of N terms, so its error is
// at most ~ε·log₂N·Σ|x|, and log1p and the normalization by the maximum
// only shrink it.
func FuzzCenteredSpectrum(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{7})
	f.Add(uint8(8), uint8(9), []byte("odd height leaves the last row unpaired"))
	f.Add(uint8(11), uint8(13), []byte{0, 255, 0, 255, 3})
	f.Add(uint8(32), uint8(1), []byte{255})
	f.Fuzz(func(t *testing.T, w, h uint8, pix []byte) {
		width, height := int(w%48)+1, int(h%48)+1
		n := width * height
		data := make([]float64, n)
		var l1 float64
		for i := range data {
			if len(pix) > 0 {
				data[i] = float64(pix[i%len(pix)])
			}
			l1 += data[i]
		}
		got, err := CenteredSpectrum(data, width, height)
		if err != nil {
			t.Fatal(err)
		}
		want, err := complexCenteredSpectrum(data, width, height)
		if err != nil {
			t.Fatal(err)
		}
		var mx float64 // the oracle's normalizer: log1p of the largest |F|
		for _, v := range logMagnitude(mustFFT2D(t, data, width, height)) {
			mx = math.Max(mx, v)
		}
		tol := realSpectrumTol
		if mx > 0 {
			tol += 16 * 0x1p-52 * math.Log2(float64(2*n)) * l1 / mx
		}
		for i, v := range got {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%dx%d: sample %d = %v outside [0, 1]", width, height, i, v)
			}
		}
		if d, i := maxAbsDiff(got, want); d > tol {
			t.Fatalf("%dx%d: sample %d: real path %v vs complex path %v (|Δ| = %.3g > %.3g)",
				width, height, i, got[i], want[i], d, tol)
		}
	})
}

func mustFFT2D(t *testing.T, data []float64, w, h int) *Matrix {
	t.Helper()
	m, err := FromReal(data, w, h)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := FFT2D(m)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// benchmarkCenteredSpectrumInto times the pooled real-input spectrum at
// one geometry with 8-bit noise input.
func benchmarkCenteredSpectrumInto(b *testing.B, w, h int) {
	data := randomPlane(rand.New(rand.NewSource(97)), w, h)
	p, err := Plan2DFor(w, h)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.CenteredSpectrumInto(context.Background(), data, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCenteredSpectrumInto1024x768 is the gateway geometry of the
// paper's run-time deployment.
func BenchmarkCenteredSpectrumInto1024x768(b *testing.B) { benchmarkCenteredSpectrumInto(b, 1024, 768) }

// BenchmarkCenteredSpectrumInto800x600 is the ~800×600 source geometry
// of the paper's evaluation.
func BenchmarkCenteredSpectrumInto800x600(b *testing.B) { benchmarkCenteredSpectrumInto(b, 800, 600) }
