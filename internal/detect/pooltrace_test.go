//go:build pooltrace

package detect

// Runtime counterpart of declint's static poollife check: under the
// pooltrace build tag every pooled borrow is ledgered, and these tests
// assert the ledger balances — each Intermediates buffer released exactly
// once — on the happy path and, the hard case, when a batch is cancelled
// midway with workers still holding pooled substrates.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/steg"
	"decamouflage/internal/testutil"
)

// rgbImage builds a 3-channel image so the gray stage must borrow a
// pooled conversion plane (single-channel inputs skip the pool).
func rgbImage(w, h int, seed float64) *imgcore.Image {
	pix := make([]float64, w*h*3)
	for i := range pix {
		pix[i] = float64(i%251)/251 + seed/1024
	}
	return &imgcore.Image{W: w, H: h, C: 3, Pix: pix}
}

// grayScorer is a PipelineScorer that forces the pooled gray substrate.
type grayScorer struct {
	after func() // runs once after the first completed score, if set
	once  sync.Once
}

func (s *grayScorer) Name() string { return "pooltrace/gray" }

func (s *grayScorer) Score(img *imgcore.Image) (float64, error) {
	return float64(img.W), nil
}

func (s *grayScorer) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	g, err := in.gray(ctx)
	if err != nil {
		return 0, err
	}
	if s.after != nil {
		s.once.Do(s.after)
	}
	return g.Pix[0], nil
}

func grayEnsemble(t *testing.T, sc *grayScorer) *Ensemble {
	t.Helper()
	d, err := NewDetector(sc, Threshold{Value: 1e9, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPoolTraceBatchBalances: a full batch releases every pooled borrow
// exactly once.
func TestPoolTraceBatchBalances(t *testing.T) {
	poolTraceReset()
	e := grayEnsemble(t, &grayScorer{})
	imgs := make([]*imgcore.Image, 8)
	for i := range imgs {
		imgs[i] = rgbImage(16, 12, float64(i))
	}
	if _, err := e.DetectBatch(context.Background(), imgs); err != nil {
		t.Fatal(err)
	}
	if err := poolTraceVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolTraceMidBatchCancellation cancels the batch from inside the
// first completed score, while other workers hold live pooled substrates
// and every worker still has images queued. The batch must error, and the
// ledger must still balance: cancellation may skip work, but it may never
// strand or double-free a pooled buffer.
func TestPoolTraceMidBatchCancellation(t *testing.T) {
	poolTraceReset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := grayEnsemble(t, &grayScorer{after: cancel})
	// Enough images that every worker has a next image queued when the
	// cancel lands, so the batch error is deterministic.
	imgs := make([]*imgcore.Image, 4*runtime.GOMAXPROCS(0)+8)
	for i := range imgs {
		imgs[i] = rgbImage(16, 12, float64(i))
	}
	_, err := e.DetectBatch(ctx, imgs)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled in its chain", err)
	}
	if verr := poolTraceVerify(); verr != nil {
		t.Fatal(verr)
	}
}

// countdownCtx reports cancellation from its (n+1)-th Err call on, where
// n is the initial value of left, so a test can land a cancellation at
// every point where a scoring pass checks its context.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPoolTraceStandaloneBalances: a built-in scorer's standalone Score
// and Detector.Detect run through a one-image pipeline table, and must
// release every pooled borrow exactly once — on success, on a context
// cancelled before the pass, and on a cancellation landing at each
// context check inside it.
func TestPoolTraceStandaloneBalances(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ss, err := NewScalingScorer(mustScaler(t, 24, 18, 8, 6), SSIM)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFilteringScorer(2, SSIM)
	if err != nil {
		t.Fatal(err)
	}
	img := rgbImage(24, 18, 3)
	for _, sc := range []Scorer{ss, fs, NewStegScorer(steg.Options{})} {
		d, err := NewDetector(sc, Threshold{Value: 1, Direction: Above})
		if err != nil {
			t.Fatal(err)
		}
		poolTraceReset()
		if _, err := sc.Score(img); err != nil {
			t.Fatalf("%s: Score: %v", sc.Name(), err)
		}
		if _, err := d.Detect(img); err != nil {
			t.Fatalf("%s: Detect: %v", sc.Name(), err)
		}
		if err := poolTraceVerify(); err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.DetectCtx(ctx, img); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled DetectCtx err = %v, want context.Canceled", sc.Name(), err)
		}
		if err := poolTraceVerify(); err != nil {
			t.Fatalf("%s: pre-cancelled: %v", sc.Name(), err)
		}

		for n := int64(1); ; n++ {
			if n > 10000 {
				t.Fatalf("%s: pass never completed under the countdown context", sc.Name())
			}
			poolTraceReset()
			cctx := &countdownCtx{Context: context.Background()}
			cctx.left.Store(n)
			_, err := d.DetectCtx(cctx, img)
			if verr := poolTraceVerify(); verr != nil {
				t.Fatalf("%s: cancelled after %d checks: %v", sc.Name(), n, verr)
			}
			if err == nil {
				t.Logf("%s: pass completes after %d context checks", sc.Name(), n)
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled after %d checks: err = %v, want context.Canceled", sc.Name(), n, err)
			}
		}
	}
}
