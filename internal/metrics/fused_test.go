package metrics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// blurSeparable runs the streaming Gaussian over src into a fresh plane.
func blurSeparable(ctx context.Context, src []float64, w, h int, kern []float64, popts ...parallel.Option) ([]float64, error) {
	dst := make([]float64, len(src))
	if err := gaussianBlur(ctx, dst, src, w, h, kern, popts...); err != nil {
		return nil, err
	}
	return dst, nil
}

// sameBits reports bit-identical scores, counting two NaNs as equal (NaN
// payloads are not part of the contract).
func sameBits(a, b float64) bool {
	return testutil.BitEqual(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}

// fusedGeometries mixes paper-like shapes with the degenerate ones: 1×N,
// N×1 and planes smaller than the 11-tap window.
var fusedGeometries = [][2]int{{1, 1}, {1, 17}, {23, 1}, {5, 4}, {10, 10}, {11, 11}, {12, 9}, {31, 37}, {64, 24}, {101, 7}}

// TestGaussianBlurMatchesOracle: every streaming-blur sample is
// bit-identical to the whole-plane row/column oracle, serial and with
// one-row bands on several workers.
func TestGaussianBlurMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ctx := context.Background()
	for _, r := range []int{0, 1, 5, 12} {
		kern := gaussianKernel(r, 1.5)
		for _, wh := range fusedGeometries {
			w, h := wh[0], wh[1]
			src := make([]float64, w*h)
			for i := range src {
				src[i] = rng.Float64() * 255
			}
			want := make([]float64, w*h)
			rowOpts, colOpts := oracleBlurOpts(w, h, len(kern), nil)
			if err := oracleBlurWith(ctx, want, src, w, h, kern, rowOpts, colOpts); err != nil {
				t.Fatal(err)
			}
			for _, popts := range [][]parallel.Option{
				{parallel.Workers(1)},
				{parallel.Workers(4), parallel.Grain(1)},
				nil,
			} {
				got, err := blurSeparable(ctx, src, w, h, kern, popts...)
				if err != nil {
					t.Fatal(err)
				}
				if i := testutil.FirstDiff(got, want); i >= 0 {
					t.Fatalf("r=%d %dx%d: sample %d = %v, oracle %v", r, w, h, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSSIMRefMatchesFiveBlur: SSIMWith and a prepared SSIMRef reproduce
// the five-blur oracle bit for bit, across geometries, channel counts,
// window parameters and worker counts.
func TestSSIMRefMatchesFiveBlur(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ctx := context.Background()
	optsSet := []SSIMOptions{
		DefaultSSIM(),
		{WindowRadius: 2, Sigma: 0.8, K1: 0.01, K2: 0.03, L: 255},
		{WindowRadius: 7, Sigma: 2.5, K1: 0, K2: 0.05, L: 1},
	}
	for _, opts := range optsSet {
		for _, wh := range fusedGeometries {
			for _, c := range []int{1, 3} {
				a, b := noisePair(t, rng, wh[0], wh[1], c)
				want, err := ssimFiveBlur(ctx, a, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SSIMWith(a, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("r=%d %dx%dx%d: SSIMWith %v, oracle %v", opts.WindowRadius, wh[0], wh[1], c, got, want)
				}
				ref, err := NewSSIMRef(ctx, a, opts, parallel.Workers(3), parallel.Grain(1))
				if err != nil {
					t.Fatal(err)
				}
				got, err = ref.ScoreCtx(ctx, b, parallel.Workers(3), parallel.Grain(1))
				ref.Release()
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("r=%d %dx%dx%d banded: SSIMRef %v, oracle %v", opts.WindowRadius, wh[0], wh[1], c, got, want)
				}
			}
		}
	}
}

// TestSSIMRefGrayRefScoresRGB: a reference built from a luminance plane
// scores an RGB comparand exactly as the oracle scores that plane against
// the comparand's luminance — the pipeline's shared-gray arrangement.
func TestSSIMRefGrayRefScoresRGB(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ctx := context.Background()
	a, b := noisePair(t, rng, 45, 38, 3)
	g := a.Gray()
	bGray := &imgcore.Image{W: b.W, H: b.H, C: 1, Pix: oracleGray(b)}
	want, err := ssimFiveBlur(ctx, g, bGray, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSSIMRef(ctx, g, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	got, err := ref.ScoreCtx(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got, want) {
		t.Fatalf("gray ref vs RGB comparand = %v, oracle %v", got, want)
	}
}

// oracleGray returns img's luminance plane as the oracle computes it.
func oracleGray(img *imgcore.Image) []float64 {
	pix, p := oracleGrayPix(img)
	out := append([]float64(nil), pix...)
	if p != nil {
		putScratch(p)
	}
	return out
}

// TestSSIMRefReuse: one reference scores several comparands, repeatedly
// and interleaved with other pooled work, each bit-identical to the
// oracle; the reference keeps its own copy of the luminance plane.
func TestSSIMRefReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ctx := context.Background()
	a, _ := noisePair(t, rng, 40, 30, 1)
	comps := make([]*imgcore.Image, 3)
	want := make([]float64, len(comps))
	for i := range comps {
		_, comps[i] = noisePair(t, rng, 40, 30, 1)
		var err error
		if want[i], err = ssimFiveBlur(ctx, a, comps[i], DefaultSSIM()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := NewSSIMRef(ctx, a, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(0) // the reference must not read the caller's plane
	for rep := 0; rep < 3; rep++ {
		for i, c := range comps {
			if _, err := SSIM(randImage(int64(rep), 13, 9, 3), randImage(int64(rep+7), 13, 9, 3)); err != nil {
				t.Fatal(err)
			}
			got, err := ref.Score(c)
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.BitEqual(got, want[i]) {
				t.Fatalf("rep %d comparand %d: %v, oracle %v", rep, i, got, want[i])
			}
		}
	}
	ref.Release()
	ref.Release() // idempotent
	if w, h := ref.Size(); w != 40 || h != 30 {
		t.Fatalf("Size = %dx%d", w, h)
	}
}

// TestSSIMRefConcurrentScores: concurrent scores against one reference
// each stay bit-identical to the oracle.
func TestSSIMRefConcurrentScores(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ctx := context.Background()
	a, _ := noisePair(t, rng, 37, 29, 3)
	comps := make([]*imgcore.Image, 8)
	want := make([]float64, len(comps))
	for i := range comps {
		_, comps[i] = noisePair(t, rng, 37, 29, 3)
		var err error
		if want[i], err = ssimFiveBlur(ctx, a, comps[i], DefaultSSIM()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := NewSSIMRef(ctx, a, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	for rep := 0; rep < 4; rep++ {
		got := make([]float64, len(comps))
		if err := parallel.For(ctx, len(comps), func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				s, err := ref.ScoreCtx(ctx, comps[i])
				if err != nil {
					return err
				}
				got[i] = s
			}
			return nil
		}, parallel.Workers(4)); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !testutil.BitEqual(got[i], want[i]) {
				t.Fatalf("rep %d comparand %d: %v, oracle %v", rep, i, got[i], want[i])
			}
		}
	}
}

// TestSSIMRefErrors: geometry mismatches, invalid inputs and cancellation
// surface as errors.
func TestSSIMRefErrors(t *testing.T) {
	ctx := context.Background()
	a := randImage(1, 20, 16, 1)
	ref, err := NewSSIMRef(ctx, a, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	if _, err := ref.Score(randImage(2, 16, 20, 1)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("transposed comparand: err = %v, want ErrShapeMismatch", err)
	}
	if _, err := ref.Score(&imgcore.Image{}); err == nil {
		t.Error("empty comparand = nil error")
	}
	if _, err := NewSSIMRef(ctx, &imgcore.Image{}, DefaultSSIM()); err == nil {
		t.Error("empty reference = nil error")
	}
	if _, err := NewSSIMRef(ctx, a, SSIMOptions{WindowRadius: 5, Sigma: math.NaN(), L: 255}); err == nil {
		t.Error("NaN sigma reference = nil error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := NewSSIMRef(cancelled, a, DefaultSSIM()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled NewSSIMRef: err = %v", err)
	}
	if _, err := ref.ScoreCtx(cancelled, randImage(3, 20, 16, 3)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ScoreCtx: err = %v", err)
	}
}

// TestGaussianBlurRejects pins GaussianBlur's argument validation.
func TestGaussianBlurRejects(t *testing.T) {
	ctx := context.Background()
	src, dst := make([]float64, 12), make([]float64, 12)
	for _, tc := range []struct {
		w, h, r int
		sigma   float64
	}{
		{4, 3, 1, 0}, {4, 3, 1, -1}, {4, 3, 1, math.NaN()}, {4, 3, 1, math.Inf(1)},
		{4, 3, -1, 1}, {3, 3, 1, 1}, {0, 12, 1, 1},
	} {
		if err := GaussianBlur(ctx, dst, src, tc.w, tc.h, tc.r, tc.sigma); err == nil {
			t.Errorf("GaussianBlur(%dx%d, r=%d, sigma=%v) = nil error", tc.w, tc.h, tc.r, tc.sigma)
		}
	}
	if err := GaussianBlur(ctx, dst, src, 4, 3, 2, 1); err != nil {
		t.Errorf("valid blur: %v", err)
	}
	// Overlapping planes: in place, and shifted by one sample either way.
	plane := make([]float64, 13)
	for _, pair := range [][2][]float64{{src, src}, {plane[1:], plane[:12]}, {plane[:12], plane[1:]}} {
		if err := GaussianBlur(ctx, pair[0], pair[1], 4, 3, 1, 1); err == nil {
			t.Errorf("overlapping dst/src accepted")
		}
	}
}

// FuzzSSIMFused checks the streaming fused SSIM against the five-blur
// oracle bit for bit: arbitrary small geometries (1×N, N×1, planes
// smaller than the window), NaN/Inf pixels, RGB comparands against a gray
// reference, and one-row bands on several workers so every band
// recomputes its halo.
func FuzzSSIMFused(f *testing.F) {
	f.Add(uint8(1), uint8(9), int64(1), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(1), int64(2), uint8(1), uint8(1))
	f.Add(uint8(7), uint8(6), int64(3), uint8(2), uint8(2))
	f.Add(uint8(33), uint8(21), int64(4), uint8(3), uint8(3))
	f.Add(uint8(12), uint8(40), int64(5), uint8(4), uint8(6))
	f.Fuzz(func(t *testing.T, w8, h8 uint8, seed int64, mode, special uint8) {
		w, h := int(w8%48)+1, int(h8%48)+1
		rng := rand.New(rand.NewSource(seed))
		channels := 1 + 2*int(mode&1) // comparand (and, unless gray-ref, reference) channels
		grayRef := mode&2 != 0 && channels == 3
		opts := DefaultSSIM()
		if mode&4 != 0 {
			opts.WindowRadius, opts.Sigma = 1+int(seed&7), 0.5+float64(seed&15)/4
		}
		a, b := noisePair(t, rng, w, h, channels)
		// special picks a sample to poison with NaN or ±Inf.
		if special != 0 {
			vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			img := a
			if special&1 != 0 {
				img = b
			}
			img.Pix[int(special)*7%len(img.Pix)] = vals[int(special)%3]
		}
		ref := a
		if grayRef {
			ref = a.Gray()
		}
		oracleB := b
		if grayRef {
			oracleB = &imgcore.Image{W: w, H: h, C: 1, Pix: oracleGray(b)}
		}
		want, err := ssimFiveBlur(context.Background(), ref, oracleB, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, popts := range [][]parallel.Option{
			{parallel.Workers(1)},
			{parallel.Workers(4), parallel.Grain(1)},
		} {
			r, err := NewSSIMRef(context.Background(), ref, opts, popts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ScoreCtx(context.Background(), b, popts...)
			r.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%dx%d c=%d grayRef=%v r=%d: fused %v, oracle %v", w, h, channels, grayRef, opts.WindowRadius, got, want)
			}
		}
	})
}

// benchPaperPair returns a paper-geometry RGB image and a noisy copy.
func benchPaperPair(b *testing.B) (*imgcore.Image, *imgcore.Image) {
	return noisePair(b, rand.New(rand.NewSource(8)), 1024, 768, 3)
}

// BenchmarkSSIMRef1024x768 prepares the reference side at the paper's
// input geometry from a luminance plane, as the pipeline does.
func BenchmarkSSIMRef1024x768(b *testing.B) {
	x, _ := benchPaperPair(b)
	g := x.Gray()
	ctx := context.Background()
	ref, err := NewSSIMRef(ctx, g, DefaultSSIM()) // fill the pools
	if err != nil {
		b.Fatal(err)
	}
	ref.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := NewSSIMRef(ctx, g, DefaultSSIM())
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
	}
}

// BenchmarkSSIMScore1024x768 scores an RGB comparand against a prepared
// luminance reference at the paper's input geometry.
func BenchmarkSSIMScore1024x768(b *testing.B) {
	x, y := benchPaperPair(b)
	ctx := context.Background()
	ref, err := NewSSIMRef(ctx, x.Gray(), DefaultSSIM())
	if err != nil {
		b.Fatal(err)
	}
	defer ref.Release()
	if _, err := ref.ScoreCtx(ctx, y); err != nil { // fill the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.ScoreCtx(ctx, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIM1024x768 is one whole fused RGB comparison (reference and
// score) at the paper's input geometry: the fast side of the
// BenchmarkSSIMLegacy1024x768 pair.
func BenchmarkSSIM1024x768(b *testing.B) {
	x, y := benchPaperPair(b)
	if _, err := SSIM(x, y); err != nil { // fill the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSIM(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIMLegacy1024x768 is the same comparison through the
// five-blur oracle, the reference the fused kernel is measured against.
func BenchmarkSSIMLegacy1024x768(b *testing.B) {
	x, y := benchPaperPair(b)
	ctx := context.Background()
	if _, err := ssimFiveBlur(ctx, x, y, DefaultSSIM()); err != nil { // fill the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssimFiveBlur(ctx, x, y, DefaultSSIM()); err != nil {
			b.Fatal(err)
		}
	}
}
