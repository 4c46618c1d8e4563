package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// calSeed seeds the calibration split. It is fixed, not taken from the
// run's seed: thresholds are frozen per benchmark version the way a
// deployed gateway freezes its config, and the split (NeurIPS-like
// sources) is disjoint from every run's evaluation inputs (Caltech-like).
const calSeed = 20210621

// calibration is the frozen result of white-box threshold selection.
type calibration struct {
	// Config is the SystemConfig JSON the timed process loads.
	Config json.RawMessage `json:"config"`
	// Thresholds holds every method's boundary, members or not.
	Thresholds map[string]detect.Threshold `json:"thresholds"`
	// SecPerMpx is the frozen ensemble's decode+Detect time per megapixel,
	// used only to size the input stream.
	SecPerMpx float64 `json:"sec_per_mpx"`
}

// calSpec is one image of the calibration split.
type calSpec struct {
	g      geom
	attack bool
	index  int
}

func calSplit(w *workload) []calSpec {
	var out []calSpec
	if w.portrait {
		// One benign and one attack per geometry pair, alternating
		// orientation, so the split covers every geometry once.
		for i, g := range w.geoms {
			out = append(out, calSpec{g: g, attack: i%2 == 1, index: i}, calSpec{g: g.t(), attack: i%2 == 0, index: i})
		}
		return out
	}
	for i := 0; i < w.calPerClass; i++ {
		out = append(out, calSpec{g: w.geoms[0], index: i}, calSpec{g: w.geoms[0], attack: true, index: i})
	}
	return out
}

// placeholder is a valid threshold for scoring before calibration.
func placeholder(method string) detect.Threshold {
	dir := detect.Above
	if method == scalingSSIM || method == filteringSSIM {
		dir = detect.Below
	}
	return detect.Threshold{Value: 0.5, Direction: dir}
}

// systemConfig is the workload's SystemConfig under the given thresholds.
func systemConfig(w *workload, th map[string]detect.Threshold, methods []string) *detect.SystemConfig {
	cfg := &detect.SystemConfig{DstW: w.dst.W, DstH: w.dst.H, Algorithm: "bilinear", Thresholds: map[string]detect.Threshold{}}
	if len(w.geoms) == 1 && !w.portrait {
		cfg.SrcW, cfg.SrcH = w.geoms[0].W, w.geoms[0].H
	}
	for _, m := range methods {
		if m != stegCSP {
			cfg.Thresholds[m] = th[m]
		}
	}
	return cfg
}

// loadOrCalibrate returns the workload's calibration, computing and
// caching it under out on first use. The cache key includes the
// benchmark binary's hash, so a rebuilt program recalibrates.
func loadOrCalibrate(ctx context.Context, w *workload, out, binHash string) (*calibration, error) {
	path := filepath.Join(out, fmt.Sprintf("cal-%s-%s.json", w.name, binHash))
	var c calibration
	err := readJSON(path, &c)
	if err == nil {
		return &c, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	cal, err := calibrate(ctx, w)
	if err != nil {
		return nil, err
	}
	if err := writeJSON(path, cal); err != nil {
		return nil, err
	}
	return cal, nil
}

// calibrate scores the calibration split with every method and picks each
// method's white-box threshold; steganalysis keeps the paper's fixed
// CSP >= 2 rule.
func calibrate(ctx context.Context, w *workload) (*calibration, error) {
	probeTh := map[string]detect.Threshold{}
	for _, m := range allMethods {
		probeTh[m] = placeholder(m)
	}
	probe, err := detect.BuildSystem(systemConfig(w, probeTh, allMethods))
	if err != nil {
		return nil, err
	}
	split := calSplit(w)
	scores := make([]map[string]float64, len(split))
	// Two encoded images (one per label) are kept for the speed probe.
	pngs := make([][]byte, len(split))
	err = parallel.For(ctx, len(split), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			s := split[i]
			var img *imgcore.Image
			if s.attack {
				res, _, err := craftAttack(dataset.NeurIPSLike, s.g, w.dst, calSeed, s.index)
				if err != nil {
					return err
				}
				img = res.Attack
			} else {
				src, err := sourceImage(dataset.NeurIPSLike, s.g, calSeed, 2*s.index)
				if err != nil {
					return err
				}
				img = src
			}
			v, err := probe.Detect(ctx, img)
			if err != nil {
				return fmt.Errorf("calibration image %d: %w", i, err)
			}
			byMethod := map[string]float64{}
			for _, mv := range v.Verdicts {
				byMethod[mv.Method] = mv.Score
			}
			scores[i] = byMethod
			if i < 2 {
				if pngs[i], err = encodePNG(img); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := &calibration{Thresholds: map[string]detect.Threshold{}}
	for _, m := range allMethods {
		var benign, attacks []float64
		for i, s := range split {
			if s.attack {
				attacks = append(attacks, scores[i][m])
			} else {
				benign = append(benign, scores[i][m])
			}
		}
		th := detect.DefaultCSPThreshold()
		if m != stegCSP {
			res, err := detect.CalibrateWhiteBox(benign, attacks)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", m, err)
			}
			th = res.Threshold
		}
		c.Thresholds[m] = th
	}
	cfg := systemConfig(w, c.Thresholds, w.memberOrder())
	if c.Config, err = detect.MarshalSystemConfig(cfg); err != nil {
		return nil, err
	}
	if c.SecPerMpx, err = speedProbe(ctx, cfg, pngs[:2]); err != nil {
		return nil, err
	}
	return c, nil
}

// speedProbe times decode+Detect per megapixel on the frozen ensemble.
func speedProbe(ctx context.Context, cfg *detect.SystemConfig, pngs [][]byte) (float64, error) {
	e, err := detect.BuildSystem(cfg)
	if err != nil {
		return 0, err
	}
	var secs, mpx float64
	for round := 0; round < 2; round++ {
		for _, b := range pngs {
			t0 := time.Now()
			img, err := imgcore.Decode(bytes.NewReader(b))
			if err != nil {
				return 0, err
			}
			if _, err := e.Detect(ctx, img); err != nil {
				return 0, err
			}
			if round == 1 { // the first round warms caches and pools
				secs += time.Since(t0).Seconds()
				mpx += float64(img.W*img.H) / 1e6
			}
		}
	}
	return secs / mpx, nil
}
