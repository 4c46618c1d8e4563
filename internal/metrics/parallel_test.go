package metrics

import (
	"context"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func noisePair(t testing.TB, rng *rand.Rand, w, h, c int) (*imgcore.Image, *imgcore.Image) {
	t.Helper()
	a, err := imgcore.New(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	for i := range a.Pix {
		a.Pix[i] = rng.Float64() * 255
		b.Pix[i] = a.Pix[i] + rng.NormFloat64()*8
	}
	return a, b
}

// TestSSIMSerialParallelEquivalence: the SSIM score — a single float64
// distilled from the streaming kernel's parallel bands — must be
// bit-identical (==, not approximately) across worker counts, over
// odd/even/prime geometries and both channel counts.
func TestSSIMSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := [][2]int{{12, 12}, {17, 13}, {31, 37}, {64, 24}, {101, 7}}
	for _, wh := range sizes {
		for _, c := range []int{1, 3} {
			a, b := noisePair(t, rng, wh[0], wh[1], c)
			want, err := ssimWith(context.Background(), a, b, DefaultSSIM(), parallel.Workers(1), parallel.Grain(1))
			if err != nil {
				t.Fatalf("%dx%dx%d serial: %v", wh[0], wh[1], c, err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, err := ssimWith(context.Background(), a, b, DefaultSSIM(), parallel.Workers(workers), parallel.Grain(1))
				if err != nil {
					t.Fatalf("%dx%dx%d workers=%d: %v", wh[0], wh[1], c, workers, err)
				}
				if !testutil.BitEqual(got, want) {
					t.Fatalf("%dx%dx%d workers=%d: SSIM %v != serial %v",
						wh[0], wh[1], c, workers, got, want)
				}
			}
		}
	}
}

// TestBlurSeparableSerialParallelEquivalence pins the underlying streaming
// Gaussian itself: every smoothed sample bit-identical across worker
// counts.
func TestBlurSeparableSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kern := gaussianKernel(5, 1.5)
	for _, wh := range [][2]int{{3, 3}, {16, 9}, {29, 31}, {80, 45}} {
		src := make([]float64, wh[0]*wh[1])
		for i := range src {
			src[i] = rng.Float64() * 255
		}
		want, err := blurSeparable(context.Background(), src, wh[0], wh[1], kern, parallel.Workers(1), parallel.Grain(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 6} {
			got, err := blurSeparable(context.Background(), src, wh[0], wh[1], kern, parallel.Workers(workers), parallel.Grain(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !testutil.BitEqual(got[i], want[i]) {
					t.Fatalf("%dx%d workers=%d: sample %d differs: %v vs %v",
						wh[0], wh[1], workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSSIMPublicAPIMatchesPinnedSerial ties SSIM/SSIMWith (default worker
// count) to the explicitly serial path.
func TestSSIMPublicAPIMatchesPinnedSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := noisePair(t, rng, 48, 56, 3)
	got, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ssimWith(context.Background(), a, b, DefaultSSIM(), parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got, want) {
		t.Fatalf("SSIM = %v diverges from serial %v", got, want)
	}
}

func benchmarkSSIM(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(7))
	x, y := noisePair(b, rng, 256, 256, 1)
	opts := DefaultSSIM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssimWith(context.Background(), x, y, opts, parallel.Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIM256Serial is the single-worker Gaussian-window SSIM
// baseline at 256×256.
func BenchmarkSSIM256Serial(b *testing.B) { benchmarkSSIM(b, 1) }

// BenchmarkSSIM256Parallel is the same score at the default (GOMAXPROCS)
// worker count.
func BenchmarkSSIM256Parallel(b *testing.B) { benchmarkSSIM(b, parallel.DefaultWorkers()) }
