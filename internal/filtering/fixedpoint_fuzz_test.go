package filtering

import (
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/testutil"
)

// FuzzFixedPointKernels cross-checks the integer minimum filter against
// its float64 oracle on adversarial geometry: 1×N and N×1 images and
// windows at least as large as the image. The uint8 kernel must agree
// bit-for-bit (integer comparisons order exactly like float64 on 8-bit
// data).
func FuzzFixedPointKernels(f *testing.F) {
	f.Add(uint8(16), uint8(12), true, uint8(3), []byte{0, 128, 255})
	f.Add(uint8(1), uint8(24), false, uint8(2), []byte{9})        // 1×N
	f.Add(uint8(24), uint8(1), true, uint8(2), []byte{255, 1})    // N×1
	f.Add(uint8(5), uint8(7), false, uint8(11), []byte{4, 200})   // window ≥ image
	f.Add(uint8(9), uint8(9), true, uint8(4), []byte("prime"))    // square, prime side
	f.Add(uint8(8), uint8(8), false, uint8(6), []byte{17, 3, 99}) // small square
	f.Fuzz(func(t *testing.T, w8, h8 uint8, rgb bool, win8 uint8, pix []byte) {
		w, h := int(w8%33)+1, int(h8%33)+1
		channels := 1
		if rgb {
			channels = 3
		}
		u, err := imgcore.NewU8(w, h, channels)
		if err != nil {
			t.Fatal(err)
		}
		for i := range u.Pix {
			if len(pix) > 0 {
				u.Pix[i] = pix[i%len(pix)]
			}
		}
		img, err := imgcore.FromU8(u)
		if err != nil {
			t.Fatal(err)
		}
		size := 2 + int(win8%12)

		got, gerr := minimumU8Wide(u, size)
		want, werr := Minimum(img, size)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("minimum: error disagreement: u8=%v float=%v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
			t.Fatalf("minimum: sample %d: u8 %v != float %v (%dx%dx%d window %d)",
				i, got.Pix[i], want.Pix[i], w, h, channels, size)
		}
	})
}
