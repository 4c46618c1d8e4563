package main

import (
	"fmt"
	"strings"
)

// geom is an image geometry in pixels.
type geom struct{ W, H int }

func (g geom) String() string { return fmt.Sprintf("%dx%d", g.W, g.H) }
func (g geom) px() int        { return g.W * g.H }
func (g geom) t() geom        { return geom{g.H, g.W} }

// Detection methods, named as SystemConfig and Verdict.Method name them.
const (
	scalingMSE    = "scaling/MSE"
	scalingSSIM   = "scaling/SSIM"
	filteringMSE  = "filtering/MSE"
	filteringSSIM = "filtering/SSIM"
	stegCSP       = "steganalysis/CSP"
)

// allMethods lists every method the system can build, in BuildSystem's
// member order. Each gets a calibrated threshold on every workload; the
// ones a workload's ensemble lacks are scored only in the traced replay.
var allMethods = []string{scalingMSE, scalingSSIM, filteringMSE, filteringSSIM, stegCSP}

// accMetric turns a method name into its per-layer accuracy metric.
func accMetric(method string) string {
	return "detect.acc." + strings.ReplaceAll(method, "/", "_")
}

// workload is one named set of inputs and the ensemble that judges them.
type workload struct {
	name string
	dst  geom
	// geoms are the source geometries. With portrait set, each also
	// appears transposed, and a round holds every geometry once in both
	// orientations, one benign and one attack.
	geoms    []geom
	portrait bool
	// attackEvery is the stream's benign:attack mix: one attack in every
	// attackEvery images.
	attackEvery int
	// members are the thresholded methods in the SystemConfig; the
	// steganalysis member is always present with its fixed rule.
	members []string
	// calPerClass is the calibration split's size per label (the audit's
	// split is one benign and one attack per geometry pair instead).
	calPerClass int
	// warm indexes the geometry of the set-up and warm-up image.
	warm int
	// batch > 0 runs DetectBatch over this many images per call at the
	// default GOMAXPROCS; 0 is one closed-loop caller using Detect.
	batch int
}

var workloads = []*workload{
	{
		name:        "gateway-1024x768",
		dst:         geom{224, 224},
		geoms:       []geom{{1024, 768}},
		attackEvery: 4,
		members:     []string{scalingMSE, filteringSSIM},
		calPerClass: 8,
	},
	{
		name: "audit-mixed",
		dst:  geom{224, 224},
		geoms: []geom{
			{640, 480}, {768, 576}, {800, 600}, {854, 480}, {960, 540}, {960, 720},
			{1024, 576}, {1024, 768}, {1152, 864}, {1280, 720}, {1280, 960},
		},
		portrait:    true,
		attackEvery: 2,
		members:     []string{scalingMSE, filteringSSIM},
		warm:        7,
		batch:       2,
	},
	// Runnable, but not a BENCHMARK.json workload: its latency is bimodal
	// on a 2-vCPU host (the member fan-out waits on the second vCPU), so
	// run-to-run spreads reach 20%.
	{
		name:        "standin-128",
		dst:         geom{32, 32},
		geoms:       []geom{{128, 128}},
		attackEvery: 2,
		members:     []string{scalingMSE, scalingSSIM, filteringMSE, filteringSSIM},
		calPerClass: 48,
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// srcGeoms returns every source geometry the workload feeds the detector.
func (w *workload) srcGeoms() []geom {
	out := append([]geom(nil), w.geoms...)
	if w.portrait {
		for _, g := range w.geoms {
			out = append(out, g.t())
		}
	}
	return out
}

// roundPx is the pixel count of one round of the audit stream.
func (w *workload) roundPx() int {
	n := 0
	for _, g := range w.srcGeoms() {
		n += g.px()
	}
	return n
}

// memberOrder returns the ensemble's method names in detector order.
func (w *workload) memberOrder() []string {
	return append(append([]string(nil), w.members...), stegCSP)
}
