package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/scaling"
)

// attackEps is the attack's L∞ budget in 8-bit levels.
const attackEps = 2

// variantsPerBase is how many inputs one generated base image yields:
// its four flips (none, horizontal, vertical, both), each with a seeded
// channel order. Bilinear scaling with half-pixel centres commutes with
// flips, transposition and channel permutation, so a variant of an attack
// image is an attack on the variant of its target; the generator measures
// every variant's violation to prove it.
const variantsPerBase = 4

// warmupBase is the base index of the warm-up image, beyond any stream's.
const warmupBase = 1 << 20

var channelPerms = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// item is one input of a run, as the manifest records it.
type item struct {
	File   string `json:"file"`
	W      int    `json:"w"`
	H      int    `json:"h"`
	Attack bool   `json:"attack"`
	SHA256 string `json:"sha256"`
	// Round is the audit round the item belongs to (0 elsewhere).
	Round int `json:"round"`
	// Base names the generated image the item derives from, and Variant
	// the flip, transposition and channel order applied to it.
	Base    string `json:"base"`
	Variant string `json:"variant"`
	// Converged and MaxViolation describe the attack: whether every
	// channel's solve met its tolerance within the default POCS sweeps,
	// and the item's measured L∞ distance between its downscale and its
	// target. Both are absent on benign items.
	Converged    *bool    `json:"converged,omitempty"`
	MaxViolation *float64 `json:"max_violation,omitempty"`
}

func (it item) geom() geom { return geom{it.W, it.H} }

// manifest describes a run's frozen inputs.
type manifest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Items    []item `json:"items"`
	// Rounds is the number of complete audit rounds (0 elsewhere).
	Rounds int `json:"rounds"`
	// Batch is the images per DetectBatch call (0: one Detect caller).
	Batch int `json:"batch"`
	// Warmup is the image set-up and warm-up judge; no timed item
	// shares its base.
	Warmup item `json:"warmup"`
	// Thresholds are the calibrated boundaries of every method, members
	// of the ensemble or not.
	Thresholds map[string]detect.Threshold `json:"thresholds"`
}

// itemSpec says how to make one item from a base image.
type itemSpec struct {
	attack    bool
	geomIdx   int // index into workload.geoms
	transpose bool
	base      int
	flip      int // bit 0: horizontal, bit 1: vertical
	perm      int
	round     int
	file      string
}

type baseKey struct {
	attack  bool
	geomIdx int
	base    int
}

func (s itemSpec) key() baseKey { return baseKey{s.attack, s.geomIdx, s.base} }

// mix hashes seed material with splitmix64.
func mix(vals ...int64) int64 {
	z := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		z ^= uint64(v)
		z += 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// planStream lays out the first n items (closed-loop workloads) or the
// first n rounds (audit) of the seed's stream. The layout of item i
// depends only on the seed and i, so a longer stream extends a shorter.
func planStream(w *workload, seed int64, n int) []itemSpec {
	var out []itemSpec
	variant := func(s itemSpec, count int) itemSpec {
		s.base, s.flip = count/variantsPerBase, count%variantsPerBase
		s.perm = int(mix(seed, boolInt(s.attack), int64(s.geomIdx), int64(count)) % 6)
		return s
	}
	if w.portrait {
		// A round is a seeded shuffle of the geometry pairs; each pair is
		// a geometry in both orientations, one benign and one attack, in
		// seeded order. DetectBatch takes one pair per call, so its two
		// workers get equal pixel counts whatever the shuffle.
		for r := 0; r < n; r++ {
			rng := rand.New(rand.NewSource(mix(seed, int64(r), 7)))
			for _, g := range rng.Perm(len(w.geoms)) {
				pair := []bool{false, true}
				rng.Shuffle(2, func(i, j int) { pair[i], pair[j] = pair[j], pair[i] })
				for _, tr := range pair {
					atk := (r+g+int(boolInt(tr)))%2 == 1
					out = append(out, variant(itemSpec{attack: atk, geomIdx: g, transpose: tr, round: r}, r))
				}
			}
		}
		return out
	}
	var counts [2]int
	for b := 0; len(out) < n; b++ {
		slot := int(mix(seed, int64(b), 3) % int64(w.attackEvery))
		for j := 0; j < w.attackEvery && len(out) < n; j++ {
			atk := j == slot
			c := &counts[boolInt(atk)]
			out = append(out, variant(itemSpec{attack: atk}, *c))
			*c++
		}
	}
	return out
}

// transform applies a flip, an optional transposition and a channel
// permutation to an image.
func transform(src *imgcore.Image, flip int, transpose bool, perm int) *imgcore.Image {
	w, h, c := src.W, src.H, src.C
	ow, oh := w, h
	if transpose {
		ow, oh = h, w
	}
	out := imgcore.MustNew(ow, oh, c)
	p := channelPerms[perm]
	for y := 0; y < h; y++ {
		sy := y
		if flip&2 != 0 {
			sy = h - 1 - y
		}
		for x := 0; x < w; x++ {
			sx := x
			if flip&1 != 0 {
				sx = w - 1 - x
			}
			oi := (y*ow + x) * c
			if transpose {
				oi = (x*ow + y) * c
			}
			si := (sy*w + sx) * c
			for ch := 0; ch < c; ch++ {
				out.Pix[oi+ch] = src.Pix[si+p[ch]]
			}
		}
	}
	return out
}

func variantName(s itemSpec) string {
	name := [4]string{"id", "flipH", "flipV", "rot180"}[s.flip]
	if s.transpose {
		name += "+T"
	}
	p := channelPerms[s.perm]
	return fmt.Sprintf("%s+ch%d%d%d", name, p[0], p[1], p[2])
}

// encodePNG encodes an 8-bit image at the default PNG compression.
func encodePNG(img *imgcore.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img.ToNRGBA()); err != nil {
		return nil, fmt.Errorf("encode png: %w", err)
	}
	return buf.Bytes(), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// maxViolation is the L∞ distance between img's downscale and target.
func maxViolation(img, target *imgcore.Image, dst geom) (float64, error) {
	sc, err := scaling.NewScaler(img.W, img.H, dst.W, dst.H, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		return 0, err
	}
	down, err := sc.Resize(img)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, v := range down.Pix {
		worst = math.Max(worst, math.Abs(v-target.Pix[i]))
	}
	return worst, nil
}

// sourceImage draws one source image of the given corpus.
func sourceImage(corpus dataset.Corpus, g geom, seed int64, index int) (*imgcore.Image, error) {
	gen, err := dataset.NewGenerator(dataset.Config{Corpus: corpus, W: g.W, H: g.H, C: 3, Seed: seed})
	if err != nil {
		return nil, err
	}
	return gen.Image(index), nil
}

// craftAttack embeds a seeded target into a seeded source of geometry g
// against the bilinear scaler to dst, with the attack's default sweeps.
func craftAttack(corpus dataset.Corpus, g, dst geom, seed int64, index int) (*attack.Result, *imgcore.Image, error) {
	src, err := sourceImage(corpus, g, seed, 2*index+1)
	if err != nil {
		return nil, nil, err
	}
	target, err := sourceImage(corpus, dst, seed+7919, index)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scaling.NewScaler(g.W, g.H, dst.W, dst.H, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		return nil, nil, err
	}
	res, err := attack.Craft(src, target, attack.Config{Scaler: sc, Eps: attackEps})
	if err != nil {
		return nil, nil, fmt.Errorf("craft attack on %v: %w", g, err)
	}
	return res, target, nil
}

// generate makes the run's evaluation inputs from Caltech-like sources,
// writes them as PNG files into dir and returns their manifest. Bases are
// generated in parallel; each is dropped once its variants are written, so
// memory holds a few images per worker whatever the stream length.
func generate(ctx context.Context, w *workload, seed int64, n int, dir string) (*manifest, error) {
	specs := planStream(w, seed, n)
	groups := map[baseKey][]int{}
	var keys []baseKey
	for i := range specs {
		specs[i].file = fmt.Sprintf("img-%05d.png", i)
		k := specs[i].key()
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], i)
	}
	// Biggest bases first, so the slowest tasks do not trail the run.
	sort.SliceStable(keys, func(i, j int) bool { return w.geoms[keys[i].geomIdx].px() > w.geoms[keys[j].geomIdx].px() })

	items := make([]item, len(specs))
	err := parallel.For(ctx, len(keys), func(lo, hi int) error {
		for _, k := range keys[lo:hi] {
			if err := makeBase(w, seed, k, specs, groups[k], items, dir); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]int{}
	for i, it := range items {
		if j, dup := seen[it.SHA256]; dup {
			return nil, fmt.Errorf("items %d and %d have identical bytes", j, i)
		}
		seen[it.SHA256] = i
	}
	// Set-up and warm-up use one more benign image from a base no stream
	// item shares, so every timed image is seen once.
	warm := itemSpec{geomIdx: w.warm, base: warmupBase, file: "warmup.png"}
	warmItems := []item{{}}
	if err := makeBase(w, seed, warm.key(), []itemSpec{warm}, []int{0}, warmItems, dir); err != nil {
		return nil, err
	}
	m := &manifest{Workload: w.name, Seed: seed, Items: items, Warmup: warmItems[0], Batch: w.batch}
	if w.portrait {
		m.Rounds = n
	}
	return m, nil
}

// makeBase generates one base image and writes every item derived from it.
func makeBase(w *workload, seed int64, k baseKey, specs []itemSpec, idxs []int, items []item, dir string) error {
	g := w.geoms[k.geomIdx]
	index := k.geomIdx*100003 + k.base
	var (
		base, target *imgcore.Image
		converged    bool
		baseName     string
		err          error
	)
	if k.attack {
		var res *attack.Result
		res, target, err = craftAttack(dataset.CaltechLike, g, w.dst, seed, index)
		if err != nil {
			return err
		}
		base, converged = res.Attack, res.Converged
		baseName = fmt.Sprintf("attack/%v/%d", g, k.base)
	} else {
		if base, err = sourceImage(dataset.CaltechLike, g, seed, 2*index); err != nil {
			return err
		}
		baseName = fmt.Sprintf("benign/%v/%d", g, k.base)
	}
	for _, i := range idxs {
		s := specs[i]
		img := transform(base, s.flip, s.transpose, s.perm)
		b, err := encodePNG(img)
		if err != nil {
			return err
		}
		it := item{
			File: s.file, W: img.W, H: img.H, Attack: s.attack,
			SHA256: sha(b), Round: s.round, Base: baseName, Variant: variantName(s),
		}
		if s.attack {
			v, err := maxViolation(img, transform(target, s.flip, s.transpose, s.perm), w.dst)
			if err != nil {
				return err
			}
			it.Converged, it.MaxViolation = &converged, &v
		}
		if err := os.WriteFile(filepath.Join(dir, it.File), b, 0o644); err != nil {
			return err
		}
		items[i] = it
	}
	return nil
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// loadItem reads an item's bytes and checks them against the manifest.
func loadItem(dir string, it item) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, it.File))
	if err != nil {
		return nil, err
	}
	if got := sha(b); got != it.SHA256 {
		return nil, fmt.Errorf("%s: sha256 %s, manifest says %s", it.File, got, it.SHA256)
	}
	return b, nil
}
