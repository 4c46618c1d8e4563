package fourier

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// planRelTol bounds the relative L2 error of a planned transform against
// the O(n²) oracle. Double-precision FFT error grows like ε·log n; the
// oracle's own summation error like ε·√n. Both stay near 1e-15 at every
// length swept here, so the bound leaves ~30× headroom while still
// catching a wrong twiddle, permutation or scale (which err by O(1)).
const planRelTol = 1e-13

// planLengths adds to the dense 1..64 sweep every image axis of the
// paper's deployment geometries (smooth lengths, mixed radix), 854 =
// 2·7·61 and a few other Bluestein lengths, and powers of two.
var planLengths = []int{
	224, 480, 540, 576, 600, 720, 768, 864, 960, 1000, 1152, // 7-smooth
	854, 1080, 1280, // 854 = 2·7·61 runs Bluestein
	97, 127, 129, 256, 1024,
}

// relL2 returns ||got-want||₂ / ||want||₂ (or ||got||₂ when want is 0).
func relL2(got, want []complex128) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if den <= 0 { // sum of squares: only an all-zero want
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestPlanMatchesNaiveDFT is the plans' accuracy contract: forward and
// inverse, at every length 1..64 and every length in planLengths, the
// planned transform stays within planRelTol of the O(n²) DFT. It replaced
// a bit-exact comparison with the unplanned transform, which mixed-radix
// stages do not reproduce.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lengths := append([]int(nil), planLengths...)
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, inverse := range []bool{false, true} {
			x := randomComplex(rng, n)
			want := naiveDFTDir(x, inverse)
			p, err := PlanFor(n, inverse)
			if err != nil {
				t.Fatalf("n=%d inverse=%v PlanFor: %v", n, inverse, err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Transform(got); err != nil {
				t.Fatalf("n=%d inverse=%v planned: %v", n, inverse, err)
			}
			if e := relL2(got, want); !(e <= planRelTol) {
				t.Fatalf("n=%d inverse=%v: relative L2 error %.3g exceeds %.0g", n, inverse, e, planRelTol)
			}
		}
	}
}

// TestPlanStrategy pins which lengths run mixed-radix stages directly and
// which fall back to Bluestein, and that Bluestein convolves at a smooth
// length.
func TestPlanStrategy(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 224, 600, 768, 1000, 1024, 1152} {
		p, err := NewPlan(n, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.stages == nil {
			t.Errorf("n=%d: smooth length fell to Bluestein", n)
		}
	}
	for _, n := range []int{11, 13, 97, 854, 1081} {
		p, err := NewPlan(n, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.stages != nil || p.sub == nil || smoothFactors(p.m) == nil || p.m < 2*n-1 {
			t.Errorf("n=%d: want Bluestein over a smooth length >= %d, got m=%d", n, 2*n-1, p.m)
		}
	}
}

// TestPlanReuseIsDeterministic: executing the same plan repeatedly (which
// exercises the pooled Bluestein scratch reuse and its zeroing) must keep
// producing bit-identical output.
func TestPlanReuseIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{16, 100, 97} {
		p, err := PlanFor(n, false)
		if err != nil {
			t.Fatal(err)
		}
		x := randomComplex(rng, n)
		first := append([]complex128(nil), x...)
		if err := p.Transform(first); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			again := append([]complex128(nil), x...)
			if err := p.Transform(again); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiffComplex(again, first); i >= 0 {
				t.Fatalf("n=%d rep=%d: reuse diverges at sample %d", n, rep, i)
			}
		}
	}
}

// TestPlanValidation pins the error surface: bad lengths at construction,
// mismatched input length at execution.
func TestPlanValidation(t *testing.T) {
	for _, n := range []int{0, -1, -8} {
		if _, err := NewPlan(n, false); err == nil {
			t.Fatalf("NewPlan(%d) accepted invalid length", n)
		}
		if _, err := PlanFor(n, false); err == nil {
			t.Fatalf("PlanFor(%d) accepted invalid length", n)
		}
	}
	p, err := NewPlan(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 7)); err == nil {
		t.Fatal("Transform accepted mismatched input length")
	}
	if p.N() != 8 || p.Inverse() {
		t.Fatalf("accessors: N=%d Inverse=%v", p.N(), p.Inverse())
	}
}

// TestPlanCacheBoundsAndHits: the cache must return the identical instance
// on a repeat request, and never exceed planCacheCap even when flooded
// with distinct lengths.
func TestPlanCacheBoundsAndHits(t *testing.T) {
	resetPlanCache()
	defer resetPlanCache()

	a, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeat PlanFor returned a distinct instance (cache miss)")
	}
	inv, err := PlanFor(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if inv == a {
		t.Fatal("direction must be part of the cache key")
	}

	// Flood with far more distinct (length, direction) keys than the cap —
	// Bluestein lengths also pull their radix-2 sub-plans through the cache.
	for n := 1; n <= 100; n++ {
		if _, err := PlanFor(n, false); err != nil {
			t.Fatal(err)
		}
		if _, err := PlanFor(n, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := planCacheLen(); got > planCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", got, planCacheCap)
	}

	// An evicted-then-refetched plan must still produce the output of a
	// freshly built one, bit for bit.
	rng := rand.New(rand.NewSource(33))
	x := randomComplex(rng, 64)
	want := append([]complex128(nil), x...)
	fresh, err := NewPlan(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Transform(want); err != nil {
		t.Fatal(err)
	}
	p, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := p.Transform(got); err != nil {
		t.Fatal(err)
	}
	if i := testutil.FirstDiffComplex(got, want); i >= 0 {
		t.Fatalf("refetched plan diverges at sample %d", i)
	}
}

// TestPlanForConcurrent: concurrent PlanFor callers (through the
// repository's parallel substrate) must all land on working plans that
// agree bit for bit with freshly built ones; run under -race this also
// exercises the build-outside-lock path for data races.
func TestPlanForConcurrent(t *testing.T) {
	resetPlanCache()
	defer resetPlanCache()
	rng := rand.New(rand.NewSource(34))
	lengths := []int{8, 100, 97, 64, 12, 256}
	inputs := make([][]complex128, len(lengths))
	wants := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = randomComplex(rng, n)
		wants[i] = append([]complex128(nil), inputs[i]...)
		fresh, err := NewPlan(n, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Transform(wants[i]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	err := parallel.For(context.Background(), rounds*len(lengths), func(lo, hi int) error {
		for job := lo; job < hi; job++ {
			i := job % len(lengths)
			p, err := PlanFor(lengths[i], false)
			if err != nil {
				return err
			}
			got := append([]complex128(nil), inputs[i]...)
			if err := p.Transform(got); err != nil {
				return err
			}
			if d := testutil.FirstDiffComplex(got, wants[i]); d >= 0 {
				t.Errorf("n=%d: concurrent planned transform diverges at %d", lengths[i], d)
			}
		}
		return nil
	}, parallel.Workers(8), parallel.Grain(1))
	if err != nil {
		t.Fatal(err)
	}
}

// benchmarkPlanned1D times the steady-state planned path against
// benchmarkNaive1D for one length.
func benchmarkPlanned1D(b *testing.B, n int, inverse bool) {
	rng := rand.New(rand.NewSource(35))
	x := randomComplex(rng, n)
	buf := make([]complex128, n)
	p, err := PlanFor(n, inverse)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := p.Transform(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkNaive1D(b *testing.B, n int, inverse bool) {
	rng := rand.New(rand.NewSource(35))
	x := randomComplex(rng, n)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := transform(buf, inverse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT1D256Planned(b *testing.B)  { benchmarkPlanned1D(b, 256, false) }
func BenchmarkFFT1D256Naive(b *testing.B)    { benchmarkNaive1D(b, 256, false) }
func BenchmarkFFT1D1000Planned(b *testing.B) { benchmarkPlanned1D(b, 1000, false) }
func BenchmarkFFT1D1000Naive(b *testing.B)   { benchmarkNaive1D(b, 1000, false) }

// BenchmarkFFT1D768Planned is the 768-point axis of the paper's
// 1024×768 gateway images (768 = 3·4⁴, formerly a Bluestein length).
func BenchmarkFFT1D768Planned(b *testing.B) { benchmarkPlanned1D(b, 768, false) }

// BenchmarkFFT2D256Unplanned reproduces the pre-plan transform2D (naive
// per-call transform, per-chunk column allocation) as the baseline for
// BenchmarkFFT2D256Serial in parallel_test.go.
func BenchmarkFFT2D256Unplanned(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	m, err := NewMatrix(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	for i := range m.Data {
		m.Data[i] = complex(rng.Float64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := &Matrix{W: m.W, H: m.H, Data: append([]complex128(nil), m.Data...)}
		for y := 0; y < m.H; y++ {
			if err := transform(out.Data[y*m.W:(y+1)*m.W], false); err != nil {
				b.Fatal(err)
			}
		}
		col := make([]complex128, m.H)
		for x := 0; x < m.W; x++ {
			for y := 0; y < m.H; y++ {
				col[y] = out.Data[y*m.W+x]
			}
			if err := transform(col, false); err != nil {
				b.Fatal(err)
			}
			for y := 0; y < m.H; y++ {
				out.Data[y*m.W+x] = col[y]
			}
		}
	}
}
