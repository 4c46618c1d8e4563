package detect

// The differential equivalence suite: the stage-DAG pipeline (the
// ensemble's Detect, and each member's standalone Score and Detect) must
// produce bit-identical scores and verdicts to the pre-pipeline
// per-scorer bodies (detectLegacy, legacy_test.go) — memoization and
// buffer pooling are allowed to change where bytes are computed, never
// which bytes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
	"decamouflage/internal/steg"
	"decamouflage/internal/testutil"
)

// matrixThreshold returns a plausible decision boundary per metric; the
// equivalence suite only needs both paths to classify against the same
// boundary.
func matrixThreshold(m Metric) Threshold {
	switch m {
	case SSIM:
		return Threshold{Value: 0.5, Direction: Below}
	case PSNR:
		return Threshold{Value: 30, Direction: Below}
	default:
		return Threshold{Value: 100, Direction: Above}
	}
}

// matrixEnsemble builds the full method×metric matrix — scaling and
// filtering under each of MSE/SSIM/PSNR, plus steganalysis/CSP — the
// ensemble shape with maximal substrate sharing.
func matrixEnsemble(tb testing.TB, srcW, srcH, dstW, dstH int) *Ensemble {
	tb.Helper()
	scaler := mustScaler(tb, srcW, srcH, dstW, dstH)
	var ds []*Detector
	for _, m := range []Metric{MSE, SSIM, PSNR} {
		ss, err := NewScalingScorer(scaler, m)
		if err != nil {
			tb.Fatal(err)
		}
		sd, err := NewDetector(ss, matrixThreshold(m))
		if err != nil {
			tb.Fatal(err)
		}
		fs, err := NewFilteringScorer(2, m)
		if err != nil {
			tb.Fatal(err)
		}
		fd, err := NewDetector(fs, matrixThreshold(m))
		if err != nil {
			tb.Fatal(err)
		}
		ds = append(ds, sd, fd)
	}
	gd, err := NewDetector(NewStegScorer(steg.Options{}), DefaultCSPThreshold())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEnsemble(append(ds, gd)...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// requireEqualVerdicts asserts two ensemble verdicts agree bit-for-bit.
func requireEqualVerdicts(t *testing.T, pipe, legacy *EnsembleVerdict) {
	t.Helper()
	if pipe.Attack != legacy.Attack || pipe.Votes != legacy.Votes {
		t.Fatalf("pipeline (attack=%v votes=%d) != legacy (attack=%v votes=%d)",
			pipe.Attack, pipe.Votes, legacy.Attack, legacy.Votes)
	}
	if len(pipe.Verdicts) != len(legacy.Verdicts) {
		t.Fatalf("verdict count %d != %d", len(pipe.Verdicts), len(legacy.Verdicts))
	}
	for i := range pipe.Verdicts {
		pv, lv := pipe.Verdicts[i], legacy.Verdicts[i]
		if pv.Method != lv.Method || pv.Attack != lv.Attack {
			t.Fatalf("verdict %d: pipeline %+v != legacy %+v", i, pv, lv)
		}
		if !testutil.BitEqual(pv.Score, lv.Score) {
			t.Fatalf("verdict %d (%s): pipeline score %v != legacy %v (ULP %d)",
				i, pv.Method, pv.Score, lv.Score, testutil.ULPDiff(pv.Score, lv.Score))
		}
	}
}

// TestPipelineMatchesLegacy sweeps odd/even/prime geometries, grayscale
// and RGB inputs, and every metric, asserting bit-identical verdicts from
// the ensemble and from every member scored on its own (Score and
// Detector.Detect). Two cases leave the common path: an image whose
// geometry differs from the scaler's source size (the downscale derives
// coefficients for the image's own size), and non-integral float samples
// (no u8 view, so the float64 gray and min-filter stages run).
func TestPipelineMatchesLegacy(t *testing.T) {
	cases := []struct {
		srcW, srcH, dstW, dstH int
		// imgW/imgH override the image geometry (zero: the scaler's source).
		imgW, imgH int
		// frac adds a quarter to every sample, so the image has no u8 view.
		frac bool
	}{
		{srcW: 16, srcH: 16, dstW: 4, dstH: 4},                     // even, power of two
		{srcW: 15, srcH: 21, dstW: 5, dstH: 7},                     // odd
		{srcW: 31, srcH: 29, dstW: 7, dstH: 5},                     // prime src
		{srcW: 47, srcH: 33, dstW: 13, dstH: 11},                   // prime dst, non-square
		{srcW: 24, srcH: 18, dstW: 32, dstH: 26},                   // degenerate "down"scale that upscales
		{srcW: 16, srcH: 16, dstW: 4, dstH: 4, imgW: 27, imgH: 19}, // image geometry ≠ scaler source
		{srcW: 24, srcH: 18, dstW: 8, dstH: 6, frac: true},         // non-integral float input
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, channels := range []int{1, 3} {
			imgW, imgH := tc.srcW, tc.srcH
			name := fmt.Sprintf("%dx%d_to_%dx%d_c%d", tc.srcW, tc.srcH, tc.dstW, tc.dstH, channels)
			if tc.imgW != 0 {
				imgW, imgH = tc.imgW, tc.imgH
				name = fmt.Sprintf("img%dx%d_on_%s", imgW, imgH, name)
			}
			if tc.frac {
				name += "_frac"
			}
			t.Run(name, func(t *testing.T) {
				e := matrixEnsemble(t, tc.srcW, tc.srcH, tc.dstW, tc.dstH)
				img := corpusImage(t, int64(imgW*imgH), 0, imgW, imgH)
				if channels == 1 {
					img = img.Gray()
				}
				if tc.frac {
					for i := range img.Pix {
						img.Pix[i] = math.Min(255, img.Pix[i]+0.25)
					}
				}
				pipe, err := e.Detect(ctx, img)
				if err != nil {
					t.Fatal(err)
				}
				legacy, err := detectLegacy(ctx, e, img)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualVerdicts(t, pipe, legacy)
				for i, d := range e.Detectors() {
					want := legacy.Verdicts[i]
					score, err := d.scorer.Score(img)
					if err != nil {
						t.Fatal(err)
					}
					if !testutil.BitEqual(score, want.Score) {
						t.Fatalf("%s: standalone Score %v != legacy %v (ULP %d)",
							d.Name(), score, want.Score, testutil.ULPDiff(score, want.Score))
					}
					v, err := d.Detect(img)
					if err != nil {
						t.Fatal(err)
					}
					if v.Method != want.Method || v.Attack != want.Attack || !testutil.BitEqual(v.Score, want.Score) {
						t.Fatalf("%s: standalone Detect %+v != legacy %+v", d.Name(), v, want)
					}
				}
			})
		}
	}
	t.Run("invalid_inputs", func(t *testing.T) {
		e := matrixEnsemble(t, 16, 16, 4, 4)
		invalid := []struct {
			name string
			img  *imgcore.Image
			want error
		}{
			{"nil", nil, imgcore.ErrEmptyImage},
			{"0x0", &imgcore.Image{C: 1}, imgcore.ErrEmptyImage},
			{"pix_length", &imgcore.Image{W: 16, H: 16, C: 1, Pix: make([]float64, 255)}, imgcore.ErrShapeMismatch},
			{"c2", &imgcore.Image{W: 16, H: 16, C: 2, Pix: make([]float64, 512)}, imgcore.ErrBadChannels},
		}
		for _, in := range invalid {
			for _, d := range e.Detectors() {
				if _, err := legacyScore(ctx, d.scorer, in.img); !errors.Is(err, in.want) {
					t.Fatalf("%s %s: oracle err = %v, want %v", in.name, d.Name(), err, in.want)
				}
				if _, err := d.scorer.Score(in.img); !errors.Is(err, in.want) {
					t.Fatalf("%s %s: Score err = %v, want %v", in.name, d.Name(), err, in.want)
				}
				if _, err := d.Detect(in.img); !errors.Is(err, in.want) {
					t.Fatalf("%s %s: Detect err = %v, want %v", in.name, d.Name(), err, in.want)
				}
			}
		}
	})
}

// TestStandaloneScoreConcurrent scores several geometries from several
// goroutines at once through the shared standalone pipeline (its scaler
// and plan caches, memo counters and buffer pool); every score must equal
// the same scorer's serial score.
func TestStandaloneScoreConcurrent(t *testing.T) {
	e := matrixEnsemble(t, 24, 18, 8, 6)
	ds := e.Detectors()
	imgs := []*imgcore.Image{
		corpusImage(t, 50, 0, 24, 18),
		corpusImage(t, 51, 0, 31, 17),
		corpusImage(t, 52, 0, 24, 18).Gray(),
	}
	want := make([][]float64, len(imgs))
	for i, img := range imgs {
		for _, d := range ds {
			s, err := d.scorer.Score(img)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], s)
		}
	}
	var tasks []func() error
	for rep := 0; rep < 4; rep++ {
		for i, img := range imgs {
			tasks = append(tasks, func() error {
				for j, d := range ds {
					s, err := d.scorer.Score(img)
					if err != nil {
						return err
					}
					if !testutil.BitEqual(s, want[i][j]) {
						return fmt.Errorf("image %d %s: concurrent score %v != serial %v", i, d.Name(), s, want[i][j])
					}
				}
				return nil
			})
		}
	}
	if err := parallel.Do(context.Background(), tasks, parallel.Workers(6)); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineWorkerCountInvariance pins that the pipeline's verdicts are
// independent of the member-dispatch worker count (substrate computation
// order changes; the memoized values must not).
func TestPipelineWorkerCountInvariance(t *testing.T) {
	e := matrixEnsemble(t, 31, 29, 7, 5)
	img := corpusImage(t, 7, 0, 31, 29)
	ctx := context.Background()
	serial, err := e.detect(ctx, img, parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := e.detect(ctx, img, parallel.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, wide, serial)
}

// TestPipelineMemoizesSubstrates pins exactly-once substrate computation:
// running the full matrix through one Intermediates table must miss once
// per unique stage and hit on every re-request, with the obs counters
// agreeing with the table's own tallies.
func TestPipelineMemoizesSubstrates(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	e := matrixEnsemble(t, 24, 18, 8, 6)
	img := corpusImage(t, 42, 0, 24, 18)

	obsHits0 := obs.C("detect.pipeline.memo.hits").Value()
	obsMiss0 := obs.C("detect.pipeline.memo.misses").Value()

	in := e.pipe.intermediates(img)
	defer in.release()
	ctx := context.Background()
	for _, d := range e.Detectors() {
		if _, err := d.detectIn(ctx, in); err != nil {
			t.Fatal(err)
		}
	}

	// Unique stages for the 7-member matrix on an RGB (8-bit) image: u8
	// view, gray, round trip, min-filter, spectrum, CSP, SSIM reference,
	// and one MSE per substrate (round trip, min-filter) = 9 misses.
	// Every other request is a hit: round trip ×2, MSE(round trip) ×1,
	// min-filter ×2, MSE(min-filter) ×1, SSIM reference ×1, gray ×1, and
	// the u8 view re-requested by whichever of gray/min-filter ran second
	// ×1 = 9 hits.
	if got := in.misses.Load(); got != 9 {
		t.Errorf("memo misses = %d, want 9 (one per unique substrate)", got)
	}
	if got := in.hits.Load(); got != 9 {
		t.Errorf("memo hits = %d, want 9", got)
	}
	if obs.Enabled() {
		if got := obs.C("detect.pipeline.memo.misses").Value() - obsMiss0; got != in.misses.Load() {
			t.Errorf("obs memo misses delta = %d, want %d", got, in.misses.Load())
		}
		if got := obs.C("detect.pipeline.memo.hits").Value() - obsHits0; got != in.hits.Load() {
			t.Errorf("obs memo hits delta = %d, want %d", got, in.hits.Load())
		}
	}

	// A second pass over the same table computes nothing new.
	miss1 := in.misses.Load()
	for _, d := range e.Detectors() {
		if _, err := d.detectIn(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.misses.Load(); got != miss1 {
		t.Errorf("second pass recomputed %d substrates", got-miss1)
	}
}

// TestPipelineAdapterWithStubs pins the adapter's fallback: a plain
// Scorer (no ScorePipeline) runs unchanged inside the pipeline
// ensemble, and mixed stub/real ensembles vote correctly.
func TestPipelineAdapterWithStubs(t *testing.T) {
	e, err := NewEnsemble(
		stubDetector(t, "stub/attack", 0, true),
		stubDetector(t, "stub/benign", 0, false),
		stubDetector(t, "stub/benign2", 0, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	img := imgcore.MustNew(8, 8, 1)
	img.Fill(100)
	v, err := e.Detect(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack || v.Votes != 1 {
		t.Fatalf("stub ensemble verdict = %+v", v)
	}
	legacy, err := detectLegacy(context.Background(), e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, v, legacy)
}

// countingScorer cancels its batch after a fixed number of scores — the
// mid-batch cancellation stub for the fused DetectBatch.
type countingScorer struct {
	scored atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *countingScorer) Name() string { return "counting/stub" }

func (c *countingScorer) Score(*imgcore.Image) (float64, error) {
	if c.scored.Add(1) == c.after {
		c.cancel()
	}
	return 0, nil
}

// TestDetectBatchFusedCancellationMidBatch pins the fused batch: a
// cancellation fired mid-batch aborts with context.Canceled before every
// image is scored.
func TestDetectBatchFusedCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &countingScorer{after: 3, cancel: cancel}
	d, err := NewDetector(cs, Threshold{Value: 1, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*imgcore.Image, 64)
	for i := range imgs {
		imgs[i] = imgcore.MustNew(8, 8, 1)
		imgs[i].Fill(float64(i))
	}
	out, err := e.DetectBatch(ctx, imgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
	if n := cs.scored.Load(); n >= int64(len(imgs)) {
		t.Fatalf("all %d images scored despite mid-batch cancel", n)
	}
}

// TestDetectBatchFusedMatchesSingle pins the fused batch against per-image
// Detect calls: same verdicts, in order, and an empty batch stays non-nil.
func TestDetectBatchFusedMatchesSingle(t *testing.T) {
	e := matrixEnsemble(t, 16, 16, 4, 4)
	ctx := context.Background()
	var imgs []*imgcore.Image
	for i := 0; i < 4; i++ {
		imgs = append(imgs, corpusImage(t, int64(i), i, 16, 16))
	}
	batch, err := e.DetectBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(imgs) {
		t.Fatalf("batch returned %d verdicts for %d images", len(batch), len(imgs))
	}
	for i, img := range imgs {
		single, err := e.Detect(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualVerdicts(t, batch[i], single)
	}
	empty, err := e.DetectBatch(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty batch = %v, want non-nil empty slice", empty)
	}
}
