package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/testutil"
)

// TestMain lets the test binary stand in for the benchmark binary when
// run re-executes itself as a timed process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func sp(id, parent int, start, end int64) span {
	return span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(0, -1, 100, 200)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(1, 0, 110, 120), sp(2, 0, 150, 170)}, 70},
		{"overlapping parallel", []span{sp(1, 0, 110, 160), sp(2, 0, 130, 180), sp(3, 0, 140, 150)}, 30},
		{"unsorted and touching", []span{sp(1, 0, 150, 170), sp(2, 0, 120, 150)}, 50},
		{"sticking out", []span{sp(1, 0, 90, 120), sp(2, 0, 190, 230)}, 70},
		{"outside", []span{sp(1, 0, 10, 90), sp(2, 0, 200, 250)}, 100},
		{"covering", []span{sp(1, 0, 50, 250)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderDumpsSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 0, 40, 90), sp(3, 1, 20, 30)}
	var buf bytes.Buffer
	if err := r.dump(&buf); err != nil {
		t.Fatal(err)
	}
	want := []int64{20, 40, 50, 10}
	dec := json.NewDecoder(&buf)
	for i := 0; dec.More(); i++ {
		var line struct {
			ID     int   `json:"id"`
			SelfNs int64 `json:"self_ns"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.ID != i || line.SelfNs != want[i] {
			t.Errorf("span %d: id %d self %d, want self %d", i, line.ID, line.SelfNs, want[i])
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, p := tail(xs)
	if !testutil.BitEqual(v, 90) || !testutil.BitEqual(p, 90) {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); !testutil.BitEqual(v, 2) || !testutil.BitEqual(p, 50) {
		t.Errorf("tail of 3 samples = %v at p%v, want the median at p50", v, p)
	}
}

func TestPlanStream(t *testing.T) {
	gw, _ := workloadNamed("gateway-1024x768")
	short, long := planStream(gw, 7, 10), planStream(gw, 7, 40)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("item %d differs between stream lengths: %+v vs %+v", i, short[i], long[i])
		}
	}
	for b := 0; b+4 <= len(long); b += 4 {
		n := 0
		for _, s := range long[b : b+4] {
			if s.attack {
				n++
			}
		}
		if n != 1 {
			t.Errorf("block %d has %d attacks, want 1 in 4", b/4, n)
		}
	}

	au, _ := workloadNamed("audit-mixed")
	if n := len(au.srcGeoms()); n <= planCacheEntries || n < 20 {
		t.Fatalf("audit has %d geometries, want at least 20 and more than the %d-entry plan cache", n, planCacheEntries)
	}
	specs := planStream(au, 7, 2)
	per := 2 * len(au.geoms)
	if len(specs) != 2*per {
		t.Fatalf("2 rounds gave %d items, want %d", len(specs), 2*per)
	}
	for r := 0; r < 2; r++ {
		seen := map[[2]int]bool{}
		round := specs[r*per : (r+1)*per]
		for i := 0; i < per; i += 2 {
			a, b := round[i], round[i+1]
			if a.geomIdx != b.geomIdx || a.transpose == b.transpose || a.attack == b.attack {
				t.Errorf("round %d pair %d is not one geometry in both orientations, one attack: %+v %+v", r, i/2, a, b)
			}
			for _, s := range []itemSpec{a, b} {
				seen[[2]int{s.geomIdx, int(boolInt(s.transpose))}] = true
			}
		}
		if len(seen) != per {
			t.Errorf("round %d covers %d geometries, want %d", r, len(seen), per)
		}
	}
}

// planCacheEntries is the detect pipeline's FFT-plan LRU capacity, which
// the audit's geometry working set must exceed.
const planCacheEntries = 16

func TestVariantsStayAttacks(t *testing.T) {
	g, dst := geom{48, 36}, geom{12, 12}
	res, target, err := craftAttack(dataset.CaltechLike, g, dst, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := maxViolation(res.Attack, target, dst)
	if err != nil {
		t.Fatal(err)
	}
	for flip := 0; flip < 4; flip++ {
		for _, tr := range []bool{false, true} {
			for perm := range channelPerms {
				v, err := maxViolation(transform(res.Attack, flip, tr, perm), transform(target, flip, tr, perm), dst)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(v-base) > 1e-9 {
					t.Errorf("flip %d transpose %v perm %d: violation %v, base %v", flip, tr, perm, v, base)
				}
			}
		}
	}
}

func TestCheckVerdict(t *testing.T) {
	members := []string{scalingMSE, filteringSSIM, stegCSP}
	mk := func(votes ...bool) *detect.EnsembleVerdict {
		v := &detect.EnsembleVerdict{}
		for i, a := range votes {
			v.Verdicts = append(v.Verdicts, detect.Verdict{Method: members[i], Attack: a})
			if a {
				v.Votes++
			}
		}
		v.Attack = 2*v.Votes > len(votes)
		return v
	}
	if err := checkVerdict(mk(true, true, false), members); err != nil {
		t.Errorf("well-formed verdict rejected: %v", err)
	}
	short := mk(true, true)
	wrongVote := mk(true, false, false)
	wrongVote.Attack = true
	wrongCount := mk(true, false, false)
	wrongCount.Votes = 2
	renamed := mk(false, false, false)
	renamed.Verdicts[1].Method = filteringMSE
	for name, v := range map[string]*detect.EnsembleVerdict{
		"nil": nil, "missing member": short, "vote not majority": wrongVote,
		"vote count": wrongCount, "member order": renamed,
	} {
		if checkVerdict(v, members) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares in one section.
func benchmarkMetrics(t *testing.T, section string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name, Unit string
		Bound      *float64
	}
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
		if section == "end_to_end" && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return out
}

func names(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	for section, code := range map[string][]string{"end_to_end": endToEnd, "per_layer": perLayer} {
		declared := names(benchmarkMetrics(t, section))
		got := append([]string(nil), code...)
		sort.Strings(got)
		if strings.Join(declared, ",") != strings.Join(got, ",") {
			t.Errorf("%s: BENCHMARK.json declares %v, code reports %v", section, declared, got)
		}
	}
	if u := benchmarkMetrics(t, "end_to_end")["setup_s"]; u != "s" {
		t.Errorf("setup_s unit %q, want s", u)
	}
}

// tinyOf shrinks a workload's geometry so a smoke run takes seconds.
func tinyOf(w *workload) *workload {
	t := *w
	t.name += "-tiny"
	div := 16
	if w.dst.W < 100 {
		div = 4
	}
	t.dst = geom{w.dst.W / div, w.dst.H / div}
	t.geoms = nil
	for _, g := range w.geoms {
		t.geoms = append(t.geoms, geom{g.W / div, g.H / div})
	}
	t.calPerClass = min(w.calPerClass, 6)
	return &t
}

// TestSmoke runs every workload end to end, untraced and traced, at tiny
// geometry: inputs, calibration, the timed processes, the output line, and
// every declared metric printed with its declared unit.
func TestSmoke(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	out := t.TempDir()
	for _, w := range workloads {
		tw := tinyOf(w)
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			if err := run(context.Background(), tw, 1, 0.2, traced, out, &buf); err != nil {
				t.Fatalf("%s traced=%v: %v", tw.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line %q: %v", tw.name, traced, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", tw.name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			section := "end_to_end"
			if traced {
				section = "per_layer"
			}
			want := benchmarkMetrics(t, section)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", tw.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: %s = %+v, want unit %q", tw.name, traced, name, m, unit)
				}
				if !strings.Contains(buf.String(), "  "+name+" ") {
					t.Errorf("%s traced=%v: report does not print %s", tw.name, traced, name)
				}
			}
			if traced && !testutil.BitEqual(res.Metrics["detect.replay_match"].Value, 1) {
				t.Errorf("%s: replay matched %v of images, want all", tw.name, res.Metrics["detect.replay_match"].Value)
			}
		}
	}
}
