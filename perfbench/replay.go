package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/filtering"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// The traced run. It replays each image's stage DAG by calling every
// layer's public functions from here, with a span around each call, at
// GOMAXPROCS=1 so a span's time is its layer's alone:
//
//	Decode → ToU8 → ResizeInto ×2 → MinimumU8Ctx → CenteredSpectrumInto →
//	AnalyzeSpectrum → MSE / NewSSIMRef / SSIMRef.ScoreCtx
//
// The replay must reproduce Detect's scores bit for bit (detect.replay_match)
// and should account for most of serial Detect's time
// (detect.replay_coverage); the rest is the detect package's own work.

// node durations of one replayed image.
type replayed struct {
	px                                            int
	decode, u8, gray, down, up, minf, spec, stegT time.Duration
	ssimRef                                       time.Duration
	decodeAlloc                                   uint64
	// scores and metric times per method; the metric time of a method
	// the ensemble lacks is not part of the member DAG.
	scores map[string]float64
	metric map[string]time.Duration
}

// memberLayers is the replay's time in layers serial Detect also runs.
func (r *replayed) memberLayers(members []string) time.Duration {
	t := r.u8 + r.down + r.up + r.minf + r.spec + r.stegT
	ref := false
	for _, m := range members {
		t += r.metric[m]
		ref = ref || m == scalingSSIM || m == filteringSSIM
	}
	if ref {
		t += r.ssimRef
	}
	return t
}

// criticalPath is the longest member chain of the DAG: what Detect would
// take with one core per member.
func (r *replayed) criticalPath(members []string) time.Duration {
	roundTrip := r.down + r.up
	ref := r.u8 + r.gray + r.ssimRef
	erode := r.u8 + r.minf
	var longest time.Duration
	for _, m := range members {
		var c time.Duration
		switch m {
		case scalingMSE:
			c = roundTrip + r.metric[m]
		case scalingSSIM:
			c = max(roundTrip, ref) + r.metric[m]
		case filteringMSE:
			c = erode + r.metric[m]
		case filteringSSIM:
			c = max(erode, ref) + r.metric[m]
		case stegCSP:
			c = r.u8 + r.gray + r.spec + r.stegT
		}
		longest = max(longest, c)
	}
	return longest
}

// replayer holds the output buffers the replay reuses across images, the
// way the pipeline's pools do.
type replayer struct {
	cfg            *detect.SystemConfig
	members        []string
	rec            *recorder
	down, up, filt []float64
	spec           []float64
}

func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func (rp *replayer) isMember(m string) bool {
	for _, x := range rp.members {
		if x == m {
			return true
		}
	}
	return false
}

// replay runs one image's DAG under trace tid. Every method is scored;
// the ones the ensemble lacks run under a "shadow" span.
func (rp *replayer) replay(ctx context.Context, tid string, b []byte) (*replayed, error) {
	rec := rp.rec
	root := rec.start(tid, -1, "image")
	defer rec.end(root)
	o := &replayed{scores: map[string]float64{}, metric: map[string]time.Duration{}}
	timed := func(parent int, name string, d *time.Duration, f func() error) error {
		id := rec.start(tid, parent, name)
		err := f()
		*d = rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var ms0, ms1 runtime.MemStats
	var img *imgcore.Image
	runtime.ReadMemStats(&ms0)
	err := timed(root, "imgcore.decode", &o.decode, func() (err error) {
		img, err = imgcore.Decode(bytes.NewReader(b))
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	o.decodeAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	o.px = img.W * img.H
	w, h, c := img.W, img.H, img.C

	var u *imgcore.U8Image
	if err := timed(root, "imgcore.u8_view", &o.u8, func() error {
		var ok bool
		if u, ok = img.ToU8(); !ok {
			return fmt.Errorf("decoded image has no 8-bit view")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// The gray plane is the detect package's own work (a LUT there);
	// imgcore.Gray computes the same bits.
	id := rec.start(tid, root, "detect.gray")
	g := img.Gray()
	o.gray = rec.end(id)

	opts := scaling.Options{Algorithm: scaling.Bilinear}
	if a, err := scaling.ParseAlgorithm(rp.cfg.Algorithm); err == nil {
		opts.Algorithm = a
	}
	dw, dh := rp.cfg.DstW, rp.cfg.DstH
	downSc, err := scaling.NewScaler(w, h, dw, dh, opts)
	if err != nil {
		return nil, err
	}
	upSc, err := scaling.NewScaler(dw, dh, w, h, opts)
	if err != nil {
		return nil, err
	}
	down := &imgcore.Image{W: dw, H: dh, C: c, Pix: grow(&rp.down, dw*dh*c)}
	up := &imgcore.Image{W: w, H: h, C: c, Pix: grow(&rp.up, w*h*c)}
	if err := timed(root, "scaling.downscale", &o.down, func() error { return downSc.ResizeInto(ctx, img, down) }); err != nil {
		return nil, err
	}
	if err := timed(root, "scaling.upscale", &o.up, func() error { return upSc.ResizeInto(ctx, down, up) }); err != nil {
		return nil, err
	}

	window := rp.cfg.FilterWindow
	if window == 0 {
		window = 2
	}
	filt := &imgcore.Image{W: w, H: h, C: c, Pix: grow(&rp.filt, w*h*c)}
	if err := timed(root, "filtering.minfilter", &o.minf, func() error {
		fu, err := filtering.MinimumU8Ctx(ctx, u, window)
		if err != nil {
			return err
		}
		return imgcore.FromU8Into(fu, filt)
	}); err != nil {
		return nil, err
	}

	plan, err := fourier.Plan2DFor(w, h)
	if err != nil {
		return nil, err
	}
	spec := grow(&rp.spec, w*h)
	if err := timed(root, "fourier.spectrum", &o.spec, func() error { return plan.CenteredSpectrumInto(ctx, g.Pix, spec) }); err != nil {
		return nil, err
	}
	if err := timed(root, "steg.analyze", &o.stegT, func() error {
		a, err := steg.AnalyzeSpectrum(spec, w, h, rp.cfg.Steg.Resolved(w, h))
		if err == nil {
			o.scores[stegCSP] = float64(a.Count)
		}
		return err
	}); err != nil {
		return nil, err
	}

	id = rec.start(tid, root, "metrics.ssim_ref")
	ref, err := metrics.NewSSIMRef(ctx, g, metrics.DefaultSSIM())
	o.ssimRef = rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("metrics.ssim_ref: %w", err)
	}
	defer ref.Release()

	shadow := -1
	for _, m := range allMethods {
		if m == stegCSP {
			continue
		}
		parent := root
		if !rp.isMember(m) {
			if shadow < 0 {
				shadow = rec.start(tid, root, "shadow")
			}
			parent = shadow
		}
		other := up
		if m == filteringMSE || m == filteringSSIM {
			other = filt
		}
		name, score := "metrics.mse", func() (float64, error) { return metrics.MSE(img, other) }
		if m == scalingSSIM || m == filteringSSIM {
			name, score = "metrics.ssim_score", func() (float64, error) { return ref.ScoreCtx(ctx, other) }
		}
		var d time.Duration
		if err := timed(parent, name, &d, func() (err error) {
			o.scores[m], err = score()
			return err
		}); err != nil {
			return nil, err
		}
		o.metric[m] = d
	}
	if shadow >= 0 {
		rec.end(shadow)
	}
	return o, nil
}

// traceResult is what the traced process reports.
type traceResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes"`
}

// sampler collects per-image samples by metric name.
type sampler map[string][]float64

func (s sampler) add(name string, v float64) { s[name] = append(s[name], v) }
func ms(d time.Duration) float64             { return float64(d) / 1e6 }

// runTrace is the traced run. Per image, in order: Detect at the default
// GOMAXPROCS, then at GOMAXPROCS=1 an untraced Detect, the replay, and a
// Detect with the program's own tracing and metrics on. Afterwards a fresh
// ensemble drives the same inputs the workload's way with metrics
// recording on, for the pipeline's cache and memo counters.
func runTrace(ctx context.Context, dir, dumpPath string, seconds float64) (*traceResult, error) {
	m, cfgBytes, err := loadRun(dir)
	if err != nil {
		return nil, err
	}
	cfg, e, err := buildSystem(cfgBytes)
	if err != nil {
		return nil, err
	}
	members := memberNames(e)
	if err := warmUp(ctx, e, dir, m); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	rp := &replayer{cfg: cfg, members: members, rec: newRecorder()}
	s := sampler{}
	res := &traceResult{Metrics: map[string]metric{}}
	conf := map[string]*eval.ConfusionStats{}
	for _, meth := range allMethods {
		conf[meth] = &eval.ConfusionStats{}
	}
	var matched int
	var layerSum, serialSum time.Duration
	var done []item
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i, it := range m.Items {
		if time.Since(start) >= budget {
			break
		}
		b, err := loadItem(dir, it)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		fail := func(err error) {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", it.File, err))
			}
		}
		img, err := imgcore.Decode(bytes.NewReader(b))
		if err != nil {
			fail(err)
			continue
		}
		t0 := time.Now()
		vPar, err := e.Detect(ctx, img)
		s.add("detect.ensemble_ms", ms(time.Since(t0)))
		if err == nil {
			err = checkVerdict(vPar, members)
		}
		if err != nil {
			fail(err)
			continue
		}

		runtime.GOMAXPROCS(1)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		vSer, errSer := e.Detect(ctx, img)
		serial := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r, errRep := rp.replay(ctx, fmt.Sprintf("%s/s%d/%d", m.Workload, m.Seed, i), b)
		obs.Enable()
		tctx, tr := obs.WithTrace(ctx, "perfbench.detect")
		t0 = time.Now()
		_, errTr := e.Detect(tctx, img)
		traced := time.Since(t0)
		tr.End()
		obs.Disable()
		runtime.GOMAXPROCS(procs)
		if err := firstErr(errSer, errRep, errTr); err != nil {
			fail(err)
			continue
		}

		s.add("detect.ensemble_serial_ms", ms(serial))
		s.add("traced_ms", ms(traced))
		s.add("detect.allocs_per_img", float64(ms1.Mallocs-ms0.Mallocs))
		layers := r.memberLayers(members)
		layerSum += layers
		serialSum += serial
		s.add("detect.self_ms", ms(serial-layers))
		s.add("parallel.critical_path_ms", ms(r.criticalPath(members)))
		px := float64(r.px)
		s.add("imgcore.decode_ms", ms(r.decode))
		s.add("imgcore.decode_ns_per_px", float64(r.decode)/px)
		s.add("imgcore.decode_alloc_mb", float64(r.decodeAlloc)/1e6)
		s.add("imgcore.u8_view_ms", ms(r.u8))
		s.add("scaling.downscale_ms", ms(r.down))
		s.add("scaling.upscale_ms", ms(r.up))
		s.add("scaling.roundtrip_ns_per_px", float64(r.down+r.up)/px)
		s.add("filtering.minfilter_ms", ms(r.minf))
		s.add("fourier.spectrum_ms", ms(r.spec))
		s.add("fourier.spectrum_ns_per_px", float64(r.spec)/px)
		s.add("steg.analyze_ms", ms(r.stegT))
		s.add("metrics.ssim_ref_ms", ms(r.ssimRef))
		for _, mem := range members {
			switch mem {
			case scalingMSE, filteringMSE:
				s.add("metrics.mse_ms", ms(r.metric[mem]))
			case scalingSSIM, filteringSSIM:
				s.add("metrics.ssim_score_ms", ms(r.metric[mem]))
			}
		}

		same := true
		for k, mv := range vSer.Verdicts {
			same = same && sameBits(mv.Score, vPar.Verdicts[k].Score) && sameBits(mv.Score, r.scores[mv.Method])
		}
		if same {
			matched++
		}
		for _, meth := range allMethods {
			conf[meth].Record(it.Attack, m.Thresholds[meth].Classify(r.scores[meth]))
		}
		done = append(done, it)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no input was traced")
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	for _, name := range []string{
		"imgcore.decode_ms", "imgcore.u8_view_ms", "scaling.downscale_ms", "scaling.upscale_ms",
		"filtering.minfilter_ms", "fourier.spectrum_ms", "steg.analyze_ms", "metrics.mse_ms",
		"metrics.ssim_ref_ms", "metrics.ssim_score_ms", "detect.ensemble_ms",
		"detect.ensemble_serial_ms", "detect.self_ms", "parallel.critical_path_ms",
	} {
		put(name, "ms", median(s[name]))
	}
	for _, name := range []string{"imgcore.decode_ns_per_px", "scaling.roundtrip_ns_per_px", "fourier.spectrum_ns_per_px"} {
		put(name, "ns/px", median(s[name]))
	}
	put("imgcore.decode_alloc_mb", "MB", median(s["imgcore.decode_alloc_mb"]))
	put("detect.allocs_per_img", "count", median(s["detect.allocs_per_img"]))
	n := float64(res.Attempted)
	put("detect.replay_match", "ratio", float64(matched)/n)
	put("detect.replay_coverage", "ratio", ratio(float64(layerSum), float64(serialSum)))
	for _, meth := range allMethods {
		put(accMetric(meth), "ratio", conf[meth].Accuracy())
	}
	ens, ser := median(s["detect.ensemble_ms"]), median(s["detect.ensemble_serial_ms"])
	put("parallel.fanout_efficiency", "ratio", ratio(median(s["parallel.critical_path_ms"]), ens))
	put("parallel.speedup", "ratio", ratio(ser, ens))
	put("trace.overhead_ratio", "ratio", ratio(median(s["traced_ms"]), ser))

	scalerMs, planMs, err := buildCosts(rp.rec, cfg, done)
	if err != nil {
		return nil, err
	}
	put("scaling.scaler_build_ms", "ms", scalerMs)
	put("fourier.plan_build_ms", "ms", planMs)

	cs, err := cachePass(ctx, cfgBytes, dir, m, done)
	if err != nil {
		return nil, err
	}
	for k, v := range cs {
		res.Metrics[k] = v
	}

	if err := os.MkdirAll(filepath.Dir(dumpPath), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(dumpPath)
	if err != nil {
		return nil, err
	}
	if err := rp.rec.dump(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("traced %d images (%d replayed bit-identical); %d spans kept", res.Attempted, matched, len(rp.rec.spans)),
		fmt.Sprintf("medians over %d images; replay and serial Detect at GOMAXPROCS=1, ensemble at GOMAXPROCS=%d", len(s["detect.ensemble_serial_ms"]), procs))
	return res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// buildCosts times cold scaler and FFT-plan construction for the traced
// geometries (up to four), three times each, and returns the medians. It
// calls the uncached builders: the pipeline's caches hide them after the
// first image, but every new geometry and every fresh process pays them.
func buildCosts(rec *recorder, cfg *detect.SystemConfig, done []item) (scalerMs, planMs float64, err error) {
	opts := scaling.Options{Algorithm: scaling.Bilinear}
	if a, err := scaling.ParseAlgorithm(cfg.Algorithm); err == nil {
		opts.Algorithm = a
	}
	seen := map[geom]bool{}
	var sc, pl []float64
	for _, it := range done {
		g := it.geom()
		if seen[g] || len(seen) == 4 {
			continue
		}
		seen[g] = true
		tid := "build/" + g.String()
		for rep := 0; rep < 3; rep++ {
			id := rec.start(tid, -1, "scaling.scaler_build")
			for _, nm := range [][2]int{{g.W, cfg.DstW}, {g.H, cfg.DstH}, {cfg.DstW, g.W}, {cfg.DstH, g.H}} {
				if _, err := scaling.BuildCoeff(nm[0], nm[1], opts); err != nil {
					return 0, 0, err
				}
			}
			sc = append(sc, ms(rec.end(id)))
			id = rec.start(tid, -1, "fourier.plan_build")
			for _, n := range []int{g.W, g.H} {
				if _, err := fourier.NewPlan(n, false); err != nil {
					return 0, 0, err
				}
			}
			pl = append(pl, ms(rec.end(id)))
		}
	}
	return median(sc), median(pl), nil
}

// cachePass drives a fresh ensemble over the traced inputs the workload's
// way (audit: DetectBatch over one whole round) with metrics recording
// on, and reads the pipeline's cache and memo counters.
func cachePass(ctx context.Context, cfgBytes []byte, dir string, m *manifest, done []item) (map[string]metric, error) {
	_, e, err := buildSystem(cfgBytes)
	if err != nil {
		return nil, err
	}
	names := []string{
		"detect.pipeline.scalers.hits", "detect.pipeline.scalers.misses", "detect.pipeline.scalers.evictions",
		"detect.pipeline.plans.hits", "detect.pipeline.plans.misses", "detect.pipeline.plans.evictions",
		"detect.pipeline.memo.hits", "detect.pipeline.memo.misses",
	}
	before := map[string]float64{}
	for _, n := range names {
		before[n] = float64(obs.C(n).Value())
	}
	items := done
	if m.Rounds > 0 {
		items = m.units()[0]
	}
	obs.Enable()
	for _, batch := range m.batches(items) {
		raw, err := loadItems(dir, batch)
		if err == nil {
			_, err = judge(ctx, e, m.Batch, raw)
		}
		if err != nil {
			obs.Disable()
			return nil, err
		}
	}
	obs.Disable()
	d := func(n string) float64 { return float64(obs.C(n).Value()) - before[n] }
	hitRatio := func(prefix string) float64 {
		return ratio(d(prefix+".hits"), d(prefix+".hits")+d(prefix+".misses"))
	}
	return map[string]metric{
		"cache.scaler_hit_ratio": {hitRatio("detect.pipeline.scalers"), "ratio"},
		"cache.plan_hit_ratio":   {hitRatio("detect.pipeline.plans"), "ratio"},
		"cache.evictions":        {d("detect.pipeline.scalers.evictions") + d("detect.pipeline.plans.evictions"), "count"},
		"detect.memo_hit_ratio":  {hitRatio("detect.pipeline.memo"), "ratio"},
	}, nil
}
