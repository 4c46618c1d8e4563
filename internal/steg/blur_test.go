package steg

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

// gaussianBlur2D is the direct separable Gaussian loop steg smoothed with
// before it moved onto metrics.GaussianBlur: radius 3σ+1, replicate
// borders, taps summed in ascending order. It is the oracle the shared
// blur is pinned against bit for bit.
func gaussianBlur2D(src []float64, w, h int, sigma float64) []float64 {
	r := int(sigma*3) + 1
	k := make([]float64, 2*r+1)
	var s float64
	for i := -r; i <= r; i++ {
		k[i+r] = math.Exp(-float64(i*i) / (2 * sigma * sigma))
		s += k[i+r]
	}
	for i := range k {
		k[i] /= s
	}
	tmp := make([]float64, len(src))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v float64
			for d := -r; d <= r; d++ {
				xx := min(max(x+d, 0), w-1)
				v += k[d+r] * src[y*w+xx]
			}
			tmp[y*w+x] = v
		}
	}
	out := make([]float64, len(src))
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			var v float64
			for d := -r; d <= r; d++ {
				yy := min(max(y+d, 0), h-1)
				v += k[d+r] * tmp[yy*w+x]
			}
			out[y*w+x] = v
		}
	}
	return out
}

// TestSmoothingMatchesLoopOracle: the spectrum smoothing AnalyzeSpectrum
// runs (metrics.GaussianBlur with radius int(3σ)+1) must reproduce the
// direct loop bit for bit, at the gateway geometry and at small, thin and
// odd planes where the kernel overhangs the borders.
func TestSmoothingMatchesLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range []struct{ w, h int }{{1024, 768}, {7, 5}, {3, 40}, {129, 65}} {
		src := make([]float64, g.w*g.h)
		for i := range src {
			src[i] = rng.Float64()
		}
		for _, sigma := range []float64{1.0, 0.4, 2.5} {
			want := gaussianBlur2D(src, g.w, g.h, sigma)
			got := make([]float64, len(src))
			if err := metrics.GaussianBlur(context.Background(), got, src, g.w, g.h, int(sigma*3)+1, sigma); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(got, want); i != -1 {
				t.Fatalf("%dx%d σ=%v: sample %d: shared blur %v vs loop %v", g.w, g.h, sigma, i, got[i], want[i])
			}
		}
	}
}

// complexSpectrum is the complex-input centered spectrum: every sample
// widened to complex, the full FFT2D, fftshift, log(1+|F|) and
// max-normalization as separate passes.
func complexSpectrum(t testing.TB, gray *imgcore.Image) []float64 {
	t.Helper()
	w, h := gray.W, gray.H
	m, err := fourier.FromReal(gray.Pix, w, h)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fourier.FFT2D(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, w*h)
	var mx float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := math.Log1p(cmplx.Abs(spec.At(x, y)))
			out[((y+h/2)%h)*w+(x+w/2)%w] = v
			mx = math.Max(mx, v)
		}
	}
	for i := range out {
		out[i] /= mx
	}
	return out
}

// TestCSPCountRealMatchesComplexSpectrum: CSP counts and component areas
// on the real-input spectrum equal those on the complex-input spectrum,
// for benign and attack images at 128², 800×600 and 1024×768 — the
// spectrum's tolerance contract must not reach the verdict.
func TestCSPCountRealMatchesComplexSpectrum(t *testing.T) {
	for _, g := range []struct{ w, h, dw, dh int }{{128, 128, 32, 32}, {800, 600, 224, 224}, {1024, 768, 224, 224}} {
		src, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: g.w, H: g.h, C: 1, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: g.dw, H: g.dh, C: 1, Seed: 44})
		if err != nil {
			t.Fatal(err)
		}
		scaler, err := scaling.NewScaler(g.w, g.h, g.dw, g.dh, scaling.Options{Algorithm: scaling.Bilinear})
		if err != nil {
			t.Fatal(err)
		}
		benign := src.Image(0)
		res, err := attack.Craft(benign, tgt.Image(0), attack.Config{Scaler: scaler, Eps: 2, MaxSweeps: 20})
		if err != nil {
			t.Fatal(err)
		}
		for name, img := range map[string]*imgcore.Image{"benign": benign, "attack": res.Attack} {
			for _, opts := range []Options{DefaultOptions(), {MinArea: 4}} {
				got, err := Analyze(img, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := AnalyzeSpectrum(complexSpectrum(t, img), img.W, img.H, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count || !equalInts(got.Areas, want.Areas) {
					t.Errorf("%dx%d %s MinArea=%d: real spectrum CSP %d areas %v, complex %d areas %v",
						g.w, g.h, name, opts.MinArea, got.Count, got.Areas, want.Count, want.Areas)
				}
				t.Logf("%dx%d %s MinArea=%d: CSP %d", g.w, g.h, name, opts.MinArea, got.Count)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkAnalyzeSpectrum1024x768 times the steganalysis tail —
// smoothing, binarization, labelling — on a gateway-geometry spectrum.
func BenchmarkAnalyzeSpectrum1024x768(b *testing.B) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 1024, H: 768, C: 1, Seed: 45})
	if err != nil {
		b.Fatal(err)
	}
	img := g.Image(0)
	spec, err := fourier.CenteredSpectrum(img.Pix, img.W, img.H)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSpectrum(spec, img.W, img.H, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCountSpectrumMatchesAnalyze: the pooled count-only tail returns
// AnalyzeSpectrum's Count for benign and attack spectra under default,
// unsmoothed and custom options, across geometries that grow and shrink
// the pooled buffers between calls.
func TestCountSpectrumMatchesAnalyze(t *testing.T) {
	optsList := []Options{DefaultOptions(), {SmoothSigma: -1}, {MinArea: 4}, {BinarizeThreshold: 0.5, SmoothSigma: 2}}
	for _, g := range []struct{ w, h, dw, dh int }{{128, 128, 32, 32}, {96, 64, 24, 16}, {160, 120, 40, 30}, {128, 128, 32, 32}} {
		src, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: g.w, H: g.h, C: 1, Seed: 46})
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: g.dw, H: g.dh, C: 1, Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		scaler, err := scaling.NewScaler(g.w, g.h, g.dw, g.dh, scaling.Options{Algorithm: scaling.Bilinear})
		if err != nil {
			t.Fatal(err)
		}
		benign := src.Image(0)
		res, err := attack.Craft(benign, tgt.Image(0), attack.Config{Scaler: scaler, Eps: 2, MaxSweeps: 20})
		if err != nil {
			t.Fatal(err)
		}
		for name, img := range map[string]*imgcore.Image{"benign": benign, "attack": res.Attack} {
			spec, err := fourier.CenteredSpectrum(img.Pix, img.W, img.H)
			if err != nil {
				t.Fatal(err)
			}
			orig := append([]float64(nil), spec...)
			for _, opts := range optsList {
				want, err := AnalyzeSpectrum(spec, img.W, img.H, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CountSpectrum(spec, img.W, img.H, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Count {
					t.Errorf("%dx%d %s %+v: CountSpectrum %d, AnalyzeSpectrum %d", g.w, g.h, name, opts, got, want.Count)
				}
			}
			if i := testutil.FirstDiff(spec, orig); i >= 0 {
				t.Fatalf("%dx%d %s: spectrum modified at %d", g.w, g.h, name, i)
			}
		}
	}
	if _, err := CountSpectrum(make([]float64, 10), 4, 3, DefaultOptions()); err == nil {
		t.Error("mismatched spectrum length accepted")
	}
	if _, err := CountSpectrum(make([]float64, 12), 4, 3, Options{BinarizeThreshold: 1.5}); err == nil {
		t.Error("threshold outside (0,1) accepted")
	}
}

// BenchmarkCountSpectrum1024x768 times the pooled count-only tail the
// detection pipeline runs, on the same spectrum as
// BenchmarkAnalyzeSpectrum1024x768.
func BenchmarkCountSpectrum1024x768(b *testing.B) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 1024, H: 768, C: 1, Seed: 45})
	if err != nil {
		b.Fatal(err)
	}
	img := g.Image(0)
	spec, err := fourier.CenteredSpectrum(img.Pix, img.W, img.H)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountSpectrum(spec, img.W, img.H, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
