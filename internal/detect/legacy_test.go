package detect

// The pre-pipeline scoring path, kept as the differential oracle. Each
// built-in scorer used to carry a standalone ScoreCtx body next to its
// ScorePipeline; production now scores only through the pipeline, and
// these bodies stay here unchanged (apart from taking the scorer as a
// parameter and opening their stage spans without a histogram) so the
// equivalence suite, FuzzPipelineDetect and BenchmarkEnsembleLegacy
// keep comparing against exactly the code the pipeline replaced.

import (
	"context"
	"fmt"
	"sync"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// legacyUpscalers memoizes each scaling scorer's prepared dst->src
// operator, which the scorer itself used to build at construction.
var legacyUpscalers sync.Map // *ScalingScorer -> *scaling.Scaler

func legacyUpscaler(s *ScalingScorer) (*scaling.Scaler, error) {
	if up, ok := legacyUpscalers.Load(s); ok {
		return up.(*scaling.Scaler), nil
	}
	srcW, srcH := s.scaler.SrcSize()
	dstW, dstH := s.scaler.DstSize()
	up, err := scaling.NewScaler(dstW, dstH, srcW, srcH, s.scaler.Options())
	if err != nil {
		return nil, fmt.Errorf("detect: prepare upscaler: %w", err)
	}
	legacyUpscalers.Store(s, up)
	return up, nil
}

// legacyScaling is the old ScalingScorer.ScoreCtx: the round trip runs as
// three observed stages (downscale, upscale, metric).
func legacyScaling(ctx context.Context, s *ScalingScorer, img *imgcore.Image) (float64, error) {
	if err := img.Validate(); err != nil {
		return 0, err
	}
	upscaler, err := legacyUpscaler(s)
	if err != nil {
		return 0, err
	}
	_, st := obs.StartStage(ctx, "downscale", nil)
	down, err := s.scaler.Resize(img)
	st.End()
	if err != nil {
		return 0, fmt.Errorf("detect: scaling downscale: %w", err)
	}
	var up *imgcore.Image
	_, st = obs.StartStage(ctx, "upscale", nil)
	if upW, upH := upscaler.DstSize(); upW == img.W && upH == img.H {
		up, err = upscaler.Resize(down)
	} else {
		up, err = scaling.Resize(down, img.W, img.H, s.scaler.Options())
	}
	st.End()
	if err != nil {
		return 0, fmt.Errorf("detect: scaling upscale: %w", err)
	}
	_, st = obs.StartStage(ctx, "metric", nil)
	v, err := applyMetric(s.metric, img, up)
	st.End()
	return v, err
}

// legacyFiltering is the old FilteringScorer.ScoreCtx: erosion and the
// metric run as two observed stages.
func legacyFiltering(ctx context.Context, s *FilteringScorer, img *imgcore.Image) (float64, error) {
	if err := img.Validate(); err != nil {
		return 0, err
	}
	_, st := obs.StartStage(ctx, "minfilter", nil)
	f, err := filtering.Minimum(img, s.window)
	st.End()
	if err != nil {
		return 0, fmt.Errorf("detect: minimum filter: %w", err)
	}
	_, st = obs.StartStage(ctx, "metric", nil)
	v, err := applyMetric(s.metric, img, f)
	st.End()
	return v, err
}

// legacySteg is the old StegScorer.ScoreCtx: the CSP computation is one
// observed stage.
func legacySteg(ctx context.Context, s *StegScorer, img *imgcore.Image) (float64, error) {
	_, st := obs.StartStage(ctx, "csp", nil)
	n, err := steg.CSP(img, s.opts)
	st.End()
	if err != nil {
		return 0, fmt.Errorf("detect: csp: %w", err)
	}
	return float64(n), nil
}

func applyMetric(m Metric, a, b *imgcore.Image) (float64, error) {
	switch m {
	case MSE:
		return metrics.MSE(a, b)
	case SSIM:
		return metrics.SSIM(a, b)
	case PSNR:
		return metrics.PSNR(a, b)
	default:
		return 0, fmt.Errorf("detect: unsupported metric %v", m)
	}
}

// legacyScore dispatches a scorer to its pre-pipeline body; scorers that
// never had one (plain Scorer stubs) run their Score.
func legacyScore(ctx context.Context, sc Scorer, img *imgcore.Image) (float64, error) {
	switch s := sc.(type) {
	case *ScalingScorer:
		return legacyScaling(ctx, s, img)
	case *FilteringScorer:
		return legacyFiltering(ctx, s, img)
	case *StegScorer:
		return legacySteg(ctx, s, img)
	default:
		return sc.Score(img)
	}
}

// legacyDetect is the old Detector.DetectCtx over the oracle bodies.
func legacyDetect(ctx context.Context, d *Detector, img *imgcore.Image) (Verdict, error) {
	sctx, st := obs.StartStage(ctx, d.scorer.Name(), d.scoreH)
	score, err := legacyScore(sctx, d.scorer, img)
	return d.verdictFrom(st, score, err)
}

// detectLegacy runs every member of e through its pre-pipeline body with
// no substrate sharing — the old Ensemble.DetectLegacy.
func detectLegacy(ctx context.Context, e *Ensemble, img *imgcore.Image) (*EnsembleVerdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	sctx, st := obs.StartStage(ctx, "ensemble.detect", e.detectH)
	defer st.End()
	verdicts := make([]Verdict, len(e.detectors))
	tasks := make([]func() error, len(e.detectors))
	for i, d := range e.detectors {
		tasks[i] = func() error {
			v, err := legacyDetect(sctx, d, img)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name(), err)
			}
			verdicts[i] = v
			return nil
		}
	}
	if err := parallel.Do(ctx, tasks); err != nil {
		return nil, err
	}
	return e.tally(st, verdicts), nil
}
