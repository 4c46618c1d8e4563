// Command perfbench is the repository's end-to-end benchmark: encoded PNG
// bytes in, ensemble verdicts out, at the geometry the paper deploys. See
// README.md for the workloads, the metrics and how to run it.
//
//	perfbench -workload gateway-1024x768 -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is a JSON object with the fields
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 they are the per-layer ones from a
// separate traced run of the same inputs.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"decamouflage/internal/eval"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many fresh processes time set-up; setup_s is their
// median.
const setupRuns = 5

// runDeadline bounds one invocation, generation and calibration included.
const runDeadline = 170 * time.Second

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload to run")
		seed         = fs.Int64("seed", 1, "input seed")
		seconds      = fs.Float64("seconds", 10, "measured run length")
		trace        = fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
		out          = fs.String("out", ".bench_build/perfbench", "directory for caches, inputs and span dumps")
		child        = fs.String("child", "", "internal: run one timed process (setup, timed or trace)")
		dir          = fs.String("dir", "", "internal: the child's input directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// An interrupt cancels the context, which kills any child process and
	// lets the run directory be removed.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runDeadline)
	defer cancel()
	var err error
	if *child != "" {
		err = runChild(ctx, *child, *dir, *seconds, stdout)
	} else {
		var w *workload
		if w, err = workloadNamed(*workloadName); err == nil {
			err = run(ctx, w, *seed, *seconds, *trace == 1, *out, stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runChild is the entry point of a timed process; it prints one JSON line.
func runChild(ctx context.Context, kind, dir string, seconds float64, stdout io.Writer) error {
	var v any
	var err error
	switch kind {
	case "setup":
		v, err = runSetup(ctx, dir)
	case "timed":
		v, err = runTimed(ctx, dir, seconds)
	case "trace":
		v, err = runTrace(ctx, dir, filepath.Join(dir, "spans.jsonl"), seconds)
	default:
		err = fmt.Errorf("unknown child %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(v)
}

// childEnv marks a child process, so a test binary re-executing itself
// knows to run the child instead of the tests.
const childEnv = "PERFBENCH_CHILD"

// spawn runs a child process of this binary and decodes its JSON line.
func spawn(ctx context.Context, kind, dir string, seconds float64, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "-child", kind, "-dir", dir, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	outb, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s process: %w", kind, err)
	}
	if err := json.Unmarshal(outb, v); err != nil {
		return fmt.Errorf("%s process output: %w", kind, err)
	}
	return nil
}

// binaryHash identifies the running build, keying the calibration cache.
func binaryHash() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// streamLength sizes the input stream from the frozen speed probe: enough
// distinct images for 1.3× the run length (closed loop), or enough whole
// rounds (audit). A run that still runs out stops early and says so.
func streamLength(w *workload, secPerMpx, seconds float64, traced bool) int {
	if w.portrait {
		round := secPerMpx * float64(w.roundPx()) / 1e6
		if traced {
			return 1
		}
		return int(math.Ceil(seconds/round)) + 1
	}
	perImage := secPerMpx * float64(w.geoms[0].px()) / 1e6
	if traced {
		perImage *= 5 // four Detects and a replay per image
	}
	return min(int(math.Ceil(1.3*seconds/perImage))+4, 4000)
}

// run is one benchmark invocation.
func run(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, out string, stdout io.Writer) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	hash, err := binaryHash()
	if err != nil {
		return err
	}
	t0 := time.Now()
	cal, err := loadOrCalibrate(ctx, w, out, hash)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	dir, err := os.MkdirTemp(out, fmt.Sprintf("run-%s-s%d-", w.name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := generate(ctx, w, seed, streamLength(w, cal.SecPerMpx, seconds, traced), dir)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	m.Thresholds = cal.Thresholds
	if err := writeJSON(filepath.Join(dir, "manifest.json"), m); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "config.json"), cal.Config, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d inputs generated and calibrated in %.1fs (excluded from every metric)\n",
		w.name, seed, len(m.Items), time.Since(t0).Seconds())
	// Hand generation's memory back before the timed processes start.
	debug.FreeOSMemory()

	var res *result
	if traced {
		res, err = runTraced(ctx, w, seed, seconds, dir, out, stdout)
	} else {
		res, err = runTimedAll(ctx, w, seconds, dir, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// endToEnd lists the end-to-end metrics BENCHMARK.json declares, in
// report order.
var endToEnd = []string{
	"latency_p50_ms", "latency_tail_ms", "images_per_s", "mpix_per_s",
	"accuracy", "alloc_mb_per_img", "peak_rss_mb", "setup_s",
}

// runTimedAll makes the untraced run: set-up timed in fresh processes,
// then the timed process for the run length.
func runTimedAll(ctx context.Context, w *workload, seconds float64, dir string, stdout io.Writer) (*result, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		var s float64
		if err := spawn(ctx, "setup", dir, seconds, &s); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var tr timedResult
	if err := spawn(ctx, "timed", dir, seconds, &tr); err != nil {
		return nil, err
	}
	n := len(tr.LatMs)
	if n == 0 {
		return nil, errors.New("timed process judged no image")
	}
	var conf eval.ConfusionStats
	for i := range tr.LatMs {
		conf.Record(tr.Attack[i], tr.Flagged[i])
	}
	var busy, mpx, alloc float64
	for _, c := range tr.Calls {
		busy += c.S
		mpx += float64(c.Px) / 1e6
		alloc += c.AllocMB
	}
	tailV, tailP, windows := windowedTail(tr.LatMs)
	mets := map[string]metric{
		"latency_p50_ms":   {median(tr.LatMs), "ms"},
		"latency_tail_ms":  {tailV, "ms"},
		"images_per_s":     {float64(n) / busy, "1/s"},
		"mpix_per_s":       {mpx / busy, "Mpx/s"},
		"accuracy":         {conf.Accuracy(), "ratio"},
		"alloc_mb_per_img": {alloc / float64(n), "MB"},
		"peak_rss_mb":      {tr.PeakRSSMB, "MB"},
		"setup_s":          {median(setups), "s"},
	}
	extra := map[string]metric{
		"far":        {conf.FAR(), "ratio"},
		"frr":        {conf.FRR(), "ratio"},
		"error_rate": {float64(tr.Failed) / float64(n), "ratio"},
	}
	notes := map[string]string{
		"latency_p50_ms":   fmt.Sprintf("n=%d", n),
		"latency_tail_ms":  fmt.Sprintf("p%.1f (%d+ samples beyond) of each of %d windows of %d, median", tailP, tailSamples, windows, n/windows),
		"images_per_s":     fmt.Sprintf("%d images over %.1fs of calls", n, busy),
		"mpix_per_s":       fmt.Sprintf("%.1f Mpx over %.1fs of calls", mpx, busy),
		"alloc_mb_per_img": "mean over the run",
		"accuracy":         fmt.Sprintf("TP=%d TN=%d FP=%d FN=%d", conf.TP, conf.TN, conf.FP, conf.FN),
		"setup_s":          fmt.Sprintf("median of %d fresh processes", setupRuns),
		"error_rate":       fmt.Sprintf("%d of %d failed", tr.Failed, n),
	}
	if w.batch > 0 {
		notes["latency_p50_ms"] += fmt.Sprintf(", per image = its DetectBatch call of %d", w.batch)
	}
	for _, k := range append(append([]string(nil), endToEnd...), "far", "frr", "error_rate") {
		mt, ok := mets[k]
		if !ok {
			mt = extra[k]
		}
		fmt.Fprintf(stdout, "  %-18s %14.6g %-6s %s\n", k, mt.Value, mt.Unit, notes[k])
	}
	for _, e := range tr.Errors {
		fmt.Fprintln(stdout, "  failed:", e)
	}
	if tr.Exhausted {
		fmt.Fprintf(stdout, "  note: inputs ran out after %.1fs of %.0fs measured\n", busy, seconds)
	}
	return &result{Correct: tr.Failed == 0, Attempted: n, Failed: tr.Failed, Metrics: mets}, nil
}

// runTraced makes the traced run and keeps its span dump under out.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64, dir, out string, stdout io.Writer) (*result, error) {
	var tr traceResult
	if err := spawn(ctx, "trace", dir, seconds, &tr); err != nil {
		return nil, err
	}
	dump := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return nil, err
	}
	if err := os.Rename(filepath.Join(dir, "spans.jsonl"), dump); err != nil {
		return nil, err
	}
	for _, k := range perLayer {
		mt := tr.Metrics[k]
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", k, mt.Value, mt.Unit)
	}
	for _, n := range tr.Notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	fmt.Fprintln(stdout, "  spans:", dump)
	for _, e := range tr.Errors {
		fmt.Fprintln(stdout, "  failed:", e)
	}
	mets := map[string]metric{}
	for _, k := range perLayer {
		mt, ok := tr.Metrics[k]
		if !ok {
			return nil, fmt.Errorf("traced run did not report %s", k)
		}
		mets[k] = mt
	}
	return &result{Correct: tr.Failed == 0, Attempted: tr.Attempted, Failed: tr.Failed, Metrics: mets}, nil
}

// perLayer lists the per-layer metrics BENCHMARK.json declares.
var perLayer = func() []string {
	out := []string{
		"imgcore.decode_ms", "imgcore.decode_ns_per_px", "imgcore.decode_alloc_mb", "imgcore.u8_view_ms",
		"scaling.downscale_ms", "scaling.upscale_ms", "scaling.roundtrip_ns_per_px", "scaling.scaler_build_ms",
		"filtering.minfilter_ms",
		"fourier.spectrum_ms", "fourier.spectrum_ns_per_px", "fourier.plan_build_ms",
		"steg.analyze_ms",
		"metrics.mse_ms", "metrics.ssim_ref_ms", "metrics.ssim_score_ms",
		"detect.ensemble_ms", "detect.ensemble_serial_ms", "detect.self_ms", "detect.allocs_per_img",
		"detect.memo_hit_ratio",
	}
	for _, m := range allMethods {
		out = append(out, accMetric(m))
	}
	return append(out,
		"detect.replay_match", "detect.replay_coverage",
		"parallel.critical_path_ms", "parallel.fanout_efficiency", "parallel.speedup",
		"cache.scaler_hit_ratio", "cache.plan_hit_ratio", "cache.evictions",
		"trace.overhead_ratio",
	)
}()
