// Mixed-radix butterflies. A plan for a 7-smooth length n = r₁·r₂·…·r_k
// runs k in-place stages after a digit-reversal permutation. Stage s
// combines r_s adjacent sub-transforms of length span = r₁·…·r_{s-1}:
// within each block of r_s·span samples, output j + p·span (p < r_s) is
// the r_s-point DFT over q of ω^{jq}·x[j + q·span], ω = e^(±2πi/(r_s·span)).
// The r-point DFTs are written out for r = 2, 3, 4, 5 and 7, folding the
// pairs x[q] ± x[r-q] so each real cosine and sine multiplies once.
package fourier

import "math"

// stage is one butterfly pass of a mixed-radix plan.
type stage struct {
	radix int
	span  int          // length of the sub-transforms this stage combines
	tw    []complex128 // tw[j·(radix-1)+q-1] = ω^{jq}, j < span, 1 <= q < radix
	ss    [3]float64   // sign·sin(2πk/radix), k = 1..3: the butterflies' sines
}

// Butterfly cosines, cos(2πk/r), shared by both directions.
var (
	cos5 = [2]float64{math.Cos(2 * math.Pi / 5), math.Cos(4 * math.Pi / 5)}
	cos7 = [3]float64{math.Cos(2 * math.Pi / 7), math.Cos(4 * math.Pi / 7), math.Cos(6 * math.Pi / 7)}
)

// initMixed builds the digit-reversal swap list and the stage twiddles
// for the given radix sequence (innermost stage first).
func (p *Plan) initMixed(radices []int) {
	n := p.n
	// Input sample i moves to position pos(i) before the first stage: the
	// last stage's radix is the least significant digit of i, and the
	// permutation reverses the digit order. src inverts pos.
	src := make([]int, n)
	for i := 0; i < n; i++ {
		rem, size, pos := i, n, 0
		for s := len(radices) - 1; s >= 0; s-- {
			r := radices[s]
			size /= r
			pos += (rem % r) * size
			rem /= r
		}
		src[pos] = i
	}
	// Realize x'[k] = x[src[k]] as an ordered swap list: walk the target
	// positions and swap the wanted sample in from wherever it now is.
	at := make([]int, n)    // at[k]: original index now at position k
	where := make([]int, n) // where[i]: current position of original index i
	for i := range at {
		at[i], where[i] = i, i
	}
	for k, want := range src {
		if j := where[want]; j != k {
			p.swaps = append(p.swaps, k, j)
			at[k], at[j] = at[j], at[k]
			where[at[k]], where[at[j]] = k, j
		}
	}
	sign := p.sign()
	span := 1
	for _, r := range radices {
		l := r * span
		st := stage{radix: r, span: span, tw: make([]complex128, (r-1)*span)}
		for j := 0; j < span; j++ {
			for q := 1; q < r; q++ {
				s, c := math.Sincos(sign * 2 * math.Pi * float64(j*q) / float64(l))
				st.tw[j*(r-1)+q-1] = complex(c, s)
			}
		}
		for k := 1; k <= 3; k++ {
			st.ss[k-1] = sign * math.Sin(2*math.Pi*float64(k)/float64(r))
		}
		p.stages = append(p.stages, st)
		span = l
	}
}

// run applies the stage to every block of x.
//
//declint:hot
func (s *stage) run(x []complex128) {
	switch s.radix {
	case 2:
		pass2(x, s.span, s.tw)
	case 3:
		pass3(x, s.span, s.tw, s.ss[0])
	case 4:
		pass4(x, s.span, s.tw, s.ss[0])
	case 5:
		pass5(x, s.span, s.tw, s.ss[0], s.ss[1])
	case 7:
		pass7(x, s.span, s.tw, &s.ss)
	}
}

// scale multiplies z by a real factor (two multiplies, where complex(c, 0)*z
// costs four).
func scale(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

// mulI returns i·z.
func mulI(z complex128) complex128 { return complex(-imag(z), real(z)) }

//declint:hot
func pass2(x []complex128, m int, tw []complex128) {
	if m == 1 {
		for i := 0; i+1 < len(x); i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		return
	}
	for base := 0; base < len(x); base += 2 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		for j, w := range tw[:m] {
			a, b := b0[j], b1[j]*w
			b0[j], b1[j] = a+b, a-b
		}
	}
}

// bf3 is the 3-point DFT; s is sign·sin(2π/3).
func bf3(a0, a1, a2 complex128, s float64) (complex128, complex128, complex128) {
	t, u := a1+a2, a1-a2
	b := a0 - scale(0.5, t)
	e := mulI(scale(s, u))
	return a0 + t, b + e, b - e
}

//declint:hot
func pass3(x []complex128, m int, tw []complex128, s float64) {
	if m == 1 {
		for i := 0; i+2 < len(x); i += 3 {
			x[i], x[i+1], x[i+2] = bf3(x[i], x[i+1], x[i+2], s)
		}
		return
	}
	for base := 0; base < len(x); base += 3 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b2 := x[base+2*m : base+3*m]
		for j := range b0 {
			t := tw[2*j : 2*j+2]
			b0[j], b1[j], b2[j] = bf3(b0[j], b1[j]*t[0], b2[j]*t[1], s)
		}
	}
}

// bf4 is the 4-point DFT; s is sign·sin(π/2), the direction sign.
func bf4(a0, a1, a2, a3 complex128, s float64) (complex128, complex128, complex128, complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, d := a1+a3, a1-a3
	t3 := complex(-s*imag(d), s*real(d))
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

//declint:hot
func pass4(x []complex128, m int, tw []complex128, s float64) {
	if m == 1 {
		for i := 0; i+3 < len(x); i += 4 {
			x[i], x[i+1], x[i+2], x[i+3] = bf4(x[i], x[i+1], x[i+2], x[i+3], s)
		}
		return
	}
	for base := 0; base < len(x); base += 4 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b2 := x[base+2*m : base+3*m]
		b3 := x[base+3*m : base+4*m]
		for j := range b0 {
			t := tw[3*j : 3*j+3]
			b0[j], b1[j], b2[j], b3[j] = bf4(b0[j], b1[j]*t[0], b2[j]*t[1], b3[j]*t[2], s)
		}
	}
}

// bf5 is the 5-point DFT; s1, s2 are sign·sin(2π/5), sign·sin(4π/5).
func bf5(a0, a1, a2, a3, a4 complex128, s1, s2 float64) (complex128, complex128, complex128, complex128, complex128) {
	t1, t2 := a1+a4, a2+a3
	u1, u2 := a1-a4, a2-a3
	b1 := a0 + scale(cos5[0], t1) + scale(cos5[1], t2)
	b2 := a0 + scale(cos5[1], t1) + scale(cos5[0], t2)
	e1 := mulI(scale(s1, u1) + scale(s2, u2))
	e2 := mulI(scale(s2, u1) - scale(s1, u2))
	return a0 + t1 + t2, b1 + e1, b2 + e2, b2 - e2, b1 - e1
}

//declint:hot
func pass5(x []complex128, m int, tw []complex128, s1, s2 float64) {
	if m == 1 {
		for i := 0; i+4 < len(x); i += 5 {
			v := x[i : i+5]
			v[0], v[1], v[2], v[3], v[4] = bf5(v[0], v[1], v[2], v[3], v[4], s1, s2)
		}
		return
	}
	for base := 0; base < len(x); base += 5 * m {
		b0 := x[base : base+m]
		b1 := x[base+m : base+2*m]
		b2 := x[base+2*m : base+3*m]
		b3 := x[base+3*m : base+4*m]
		b4 := x[base+4*m : base+5*m]
		for j := range b0 {
			t := tw[4*j : 4*j+4]
			b0[j], b1[j], b2[j], b3[j], b4[j] = bf5(b0[j], b1[j]*t[0], b2[j]*t[1], b3[j]*t[2], b4[j]*t[3], s1, s2)
		}
	}
}

// bf7 is the 7-point DFT of v in place; ss holds sign·sin(2πk/7), k = 1..3.
//
//declint:hot
func bf7(v *[7]complex128, ss *[3]float64) {
	a0 := v[0]
	t1, t2, t3 := v[1]+v[6], v[2]+v[5], v[3]+v[4]
	u1, u2, u3 := v[1]-v[6], v[2]-v[5], v[3]-v[4]
	c1, c2, c3 := cos7[0], cos7[1], cos7[2]
	s1, s2, s3 := ss[0], ss[1], ss[2]
	b1 := a0 + scale(c1, t1) + scale(c2, t2) + scale(c3, t3)
	b2 := a0 + scale(c2, t1) + scale(c3, t2) + scale(c1, t3)
	b3 := a0 + scale(c3, t1) + scale(c1, t2) + scale(c2, t3)
	e1 := mulI(scale(s1, u1) + scale(s2, u2) + scale(s3, u3))
	e2 := mulI(scale(s2, u1) - scale(s3, u2) - scale(s1, u3))
	e3 := mulI(scale(s3, u1) - scale(s1, u2) + scale(s2, u3))
	v[0] = a0 + t1 + t2 + t3
	v[1], v[6] = b1+e1, b1-e1
	v[2], v[5] = b2+e2, b2-e2
	v[3], v[4] = b3+e3, b3-e3
}

//declint:hot
func pass7(x []complex128, m int, tw []complex128, ss *[3]float64) {
	var v [7]complex128
	l := 7 * m
	for base := 0; base < len(x); base += l {
		b := x[base : base+l]
		for j := 0; j < m; j++ {
			v[0] = b[j]
			t := tw[6*j : 6*j+6]
			for q := 1; q < 7; q++ {
				v[q] = b[j+q*m] * t[q-1]
			}
			bf7(&v, ss)
			for q := 0; q < 7; q++ {
				b[j+q*m] = v[q]
			}
		}
	}
}
