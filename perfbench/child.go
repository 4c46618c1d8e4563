package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// The timed processes. Each is a fresh process that holds only the
// frozen config and encoded inputs, so its memory figures are the
// detector's own.

// loadRun reads a run directory's manifest and config bytes.
func loadRun(dir string) (*manifest, []byte, error) {
	var m manifest
	if err := readJSON(filepath.Join(dir, "manifest.json"), &m); err != nil {
		return nil, nil, err
	}
	cfg, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, nil, err
	}
	return &m, cfg, nil
}

// buildSystem is the deployed start-up path: parse the frozen config and
// build the ensemble it describes.
func buildSystem(cfgBytes []byte) (*detect.SystemConfig, *detect.Ensemble, error) {
	cfg, err := detect.UnmarshalSystemConfig(cfgBytes)
	if err != nil {
		return nil, nil, err
	}
	e, err := detect.BuildSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	return cfg, e, nil
}

func memberNames(e *detect.Ensemble) []string {
	var out []string
	for _, d := range e.Detectors() {
		out = append(out, d.Name())
	}
	return out
}

// checkVerdict verifies a verdict's shape: one entry per member, in
// detector order, and an attack decision and vote count that are the
// members' majority.
func checkVerdict(v *detect.EnsembleVerdict, members []string) error {
	if v == nil {
		return fmt.Errorf("nil verdict")
	}
	if len(v.Verdicts) != len(members) {
		return fmt.Errorf("verdict has %d member entries, ensemble has %d", len(v.Verdicts), len(members))
	}
	votes := 0
	for i, mv := range v.Verdicts {
		if mv.Method != members[i] {
			return fmt.Errorf("member %d is %q, want %q", i, mv.Method, members[i])
		}
		if mv.Attack {
			votes++
		}
	}
	if v.Votes != votes || v.Attack != (2*votes > len(members)) {
		return fmt.Errorf("vote says attack=%v votes=%d, members give %d of %d", v.Attack, v.Votes, votes, len(members))
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runSetup times start-up from encoded inputs and config bytes in memory
// to a ready system: config parse, BuildSystem, and one decode+Detect.
func runSetup(ctx context.Context, dir string) (float64, error) {
	m, cfgBytes, err := loadRun(dir)
	if err != nil {
		return 0, err
	}
	b, err := loadItem(dir, m.Warmup)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, e, err := buildSystem(cfgBytes)
	if err != nil {
		return 0, err
	}
	img, err := imgcore.Decode(bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	if _, err := e.Detect(ctx, img); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// call is one timed call from encoded bytes to verdicts: one image for a
// closed-loop caller, one DetectBatch in an audit.
type call struct {
	Images  int     `json:"images"`
	Px      int     `json:"px"`
	S       float64 `json:"s"`
	AllocMB float64 `json:"alloc_mb"`
}

// timedResult is what the timed process reports, per judged image.
type timedResult struct {
	LatMs     []float64 `json:"lat_ms"`
	Attack    []bool    `json:"attack"`
	Flagged   []bool    `json:"flagged"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	Calls     []call    `json:"calls"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Exhausted reports that the inputs ran out before the run length.
	Exhausted bool `json:"exhausted"`
}

func (r *timedResult) record(it item, lat time.Duration, v *detect.EnsembleVerdict, err error, members []string) {
	r.LatMs = append(r.LatMs, float64(lat)/1e6)
	if err == nil {
		err = checkVerdict(v, members)
	}
	if err != nil {
		r.Failed++
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, fmt.Sprintf("%s: %v", it.File, err))
		}
	}
	r.Attack = append(r.Attack, it.Attack)
	r.Flagged = append(r.Flagged, err == nil && v.Attack)
}

// runTimed drives the workload for the run length: one closed-loop caller
// timing PNG bytes to verdict per image, or (audit) DetectBatch over
// batches of decoded images, whole rounds at a time. Reading and hashing
// an input happens outside the timed region.
func runTimed(ctx context.Context, dir string, seconds float64) (*timedResult, error) {
	m, cfgBytes, err := loadRun(dir)
	if err != nil {
		return nil, err
	}
	_, e, err := buildSystem(cfgBytes)
	if err != nil {
		return nil, err
	}
	members := memberNames(e)
	if err := warmUp(ctx, e, dir, m); err != nil {
		return nil, err
	}
	runtime.GC()
	r := &timedResult{Exhausted: true}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for _, unit := range m.units() {
		if time.Since(start) >= budget {
			r.Exhausted = false
			break
		}
		for _, batch := range m.batches(unit) {
			if err := timeBatch(ctx, e, dir, m.Batch, batch, members, r); err != nil {
				return nil, err
			}
		}
	}
	r.PeakRSSMB = peakRSSMB()
	return r, nil
}

// warmUp runs one decode+Detect so timing starts with caches and pools
// filled, as a serving gateway's would be.
func warmUp(ctx context.Context, e *detect.Ensemble, dir string, m *manifest) error {
	b, err := loadItem(dir, m.Warmup)
	if err != nil {
		return err
	}
	img, err := imgcore.Decode(bytes.NewReader(b))
	if err != nil {
		return err
	}
	_, err = e.Detect(ctx, img)
	return err
}

// units returns the stream in the units a run measures whole: audit
// rounds, or single images.
func (m *manifest) units() [][]item {
	per := 1
	if m.Rounds > 0 {
		per = len(m.Items) / m.Rounds
	}
	var out [][]item
	for lo := 0; lo < len(m.Items); lo += per {
		out = append(out, m.Items[lo:min(lo+per, len(m.Items))])
	}
	return out
}

// batches splits a unit into the calls that judge it.
func (m *manifest) batches(unit []item) [][]item {
	size := max(m.Batch, 1)
	var out [][]item
	for lo := 0; lo < len(unit); lo += size {
		out = append(out, unit[lo:min(lo+size, len(unit))])
	}
	return out
}

// judge turns encoded images into verdicts the workload's way: a decode
// and a Detect per image for a closed-loop caller (batch 0), or a
// parallel decode and one DetectBatch call.
func judge(ctx context.Context, e *detect.Ensemble, batch int, raw [][]byte) ([]*detect.EnsembleVerdict, error) {
	if batch == 0 {
		out := make([]*detect.EnsembleVerdict, len(raw))
		for i, b := range raw {
			img, err := imgcore.Decode(bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			if out[i], err = e.Detect(ctx, img); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	imgs, err := decodeAll(ctx, raw)
	if err != nil {
		return nil, err
	}
	return e.DetectBatch(ctx, imgs)
}

// loadItems reads and checks a batch's encoded bytes.
func loadItems(dir string, batch []item) ([][]byte, error) {
	raw := make([][]byte, len(batch))
	for i, it := range batch {
		b, err := loadItem(dir, it)
		if err != nil {
			return nil, err
		}
		raw[i] = b
	}
	return raw, nil
}

// timeBatch times one call of judge, from encoded bytes to verdicts. In an
// audit a verdict is available when its batch returns, so every image of
// the batch gets the batch's latency.
func timeBatch(ctx context.Context, e *detect.Ensemble, dir string, mode int, batch []item, members []string, r *timedResult) error {
	raw, err := loadItems(dir, batch)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	vs, err := judge(ctx, e, mode, raw)
	lat := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	px := 0
	for _, it := range batch {
		px += it.W * it.H
	}
	r.Calls = append(r.Calls, call{Images: len(batch), Px: px, S: lat.Seconds(), AllocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6})
	for i, it := range batch {
		var v *detect.EnsembleVerdict
		if err == nil {
			v = vs[i]
		}
		r.record(it, lat, v, err, members)
	}
	return nil
}

// decodeAll decodes encoded images in parallel at the default GOMAXPROCS.
func decodeAll(ctx context.Context, raw [][]byte) ([]*imgcore.Image, error) {
	imgs := make([]*imgcore.Image, len(raw))
	err := parallel.For(ctx, len(raw), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			img, err := imgcore.Decode(bytes.NewReader(raw[i]))
			if err != nil {
				return err
			}
			imgs[i] = img
		}
		return nil
	})
	return imgs, err
}
