// Negacyclic NTT/INTT with Montgomery-form twiddles and lazy reduction
// (Longa–Naehrig style, as in Lattigo's ring package), two butterfly stages
// per pass over the limb. Twiddle tables are stored as ψ^i·2⁶⁴ mod q so each
// butterfly costs one MRedLazy (two 64×64 multiplies) instead of a 128÷64
// hardware division.
//
// Coefficient ranges between butterflies are lazy, and every butterfly is
// the one helper (ct forward, gs inverse) that re-establishes its range:
//
//   - forward: inputs to each butterfly stay in [0, 4q); the Cooley–Tukey
//     butterfly conditionally subtracts 2q from u, computes
//     v' = MRedLazy(v, ψ̃) ∈ [0, 2q) and outputs u+v', u+2q−v' ∈ [0, 4q);
//   - inverse: coefficients stay in [0, 2q); the Gentleman–Sande butterfly
//     outputs u+v (reduced to [0, 2q)) and MRedLazy(u+2q−v, ψ̃⁻¹) ∈ [0, 2q).
//
// A pass fuses stages s and s+1 (radix 4). It walks the blocks the earlier
// stages left independent; in each it reads one coefficient from each of
// the block's four quarter-slices a, b, c, d, runs four butterflies on them
// in registers under three twiddles — forward (a,c), (b,d) under
// ψ[g+i], then (a,b) under ψ[2g+2i] and (c,d) under ψ[2g+2i+1], g blocks in
// the pass; inverse the mirror image — and writes the four back, so a limb
// is loaded and stored ⌈log N / 2⌉ times, not log N. The intermediate
// values never reach memory, but they are the values the one-stage-per-pass
// loop stored: same helpers, same order per coefficient, hence the same
// ranges and bit-identical outputs.
//
// The two stages at quarter length 1 (the forward transform's last pass,
// the inverse's first) run as straight-line code over contiguous quads with
// one twiddle triple per quad. Both transforms reach the strict [0, q)
// domain exactly once, in their last pass: the forward by reducing each
// quad's outputs before it stores them, the inverse by multiplying N⁻¹
// (and N⁻¹·ψ̃⁻¹ for the odd halves) into its final stage with strict MRed.
//
// Odd log N leaves one stage over. It runs as a radix-2 pass where that
// pass is cheapest: at the single-twiddle end of each transform (first
// forward stage, last inverse stage — which carries the N⁻¹ fold either
// way), as one loop over the two halves of the limb. Measured at N = 2048
// over six link layouts it costs the forward transform 1.39–1.44x over the
// radix-2 loop against 1.41–1.49x at N = 1024/4096; a radix-8 first pass
// read 1.44–1.50x and a four-stream radix-2 1.41–1.46x — inside the
// layout spread, for a third loop shape and a second small-N case. N = 2 is
// that radix-2 stage alone (the forward adds the strict reduction), N = 4
// one quad.
//
// The 4q < 2⁶⁴ headroom these ranges need is guaranteed by the
// package-wide q < 2⁶² bound. Every per-coefficient loop indexes slices
// re-sliced to a common length, so the only bounds checks are the per-block
// re-slices. Outputs are bit-identical to the strict division-based
// reference (see TestNTTMatchesReference).
package ring

import "math/bits"

// ct is the forward (Cooley–Tukey) lazy butterfly: u, v ∈ [0, 4q) in,
// u+ψ̃v, u−ψ̃v ∈ [0, 4q) out.
func ct(u, v, s, q, qInv, twoQ uint64) (uint64, uint64) {
	if u >= twoQ {
		u -= twoQ
	}
	v = MRedLazy(v, s, q, qInv)
	return u + v, u + twoQ - v
}

// strict brings a forward-transform output from [0, 4q) into [0, q).
func strict(v, q, twoQ uint64) uint64 {
	if v >= twoQ {
		v -= twoQ
	}
	if v >= q {
		v -= q
	}
	return v
}

// gs is the inverse (Gentleman–Sande) lazy butterfly: u, v ∈ [0, 2q) in,
// u+v, ψ̃⁻¹(u−v) ∈ [0, 2q) out.
func gs(u, v, s, q, qInv, twoQ uint64) (uint64, uint64) {
	sum := u + v
	if sum >= twoQ {
		sum -= twoQ
	}
	return sum, MRedLazy(u+twoQ-v, s, q, qInv)
}

// quarters splits blk into four slices the compiler knows to be of equal
// length, so one range over the first indexes all four unchecked.
func quarters(blk []uint64) (a, b, c, d []uint64) {
	h := len(blk) / 4
	a, b, c, d = blk[:h], blk[h:2*h], blk[2*h:3*h], blk[3*h:]
	return a, b[:len(a)], c[:len(a)], d[:len(a)]
}

// NTT transforms p to the NTT domain in place (negacyclic, Cooley–Tukey,
// lazy reduction). Output coefficients are in [0, q).
func (m *Modulus) NTT(p Poly) {
	q, qInv := m.Q, m.qInv
	twoQ := 2 * q
	psi := m.psiMont
	n := m.N
	p = p[:n]
	groups, t := 1, n // groups blocks of length t are still to be transformed
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Odd log N: the leftover stage, one twiddle over the two halves.
		s := psi[1]
		x, y := p[:n/2], p[n/2:]
		y = y[:len(x)]
		for j := range x {
			x[j], y[j] = ct(x[j], y[j], s, q, qInv, twoQ)
		}
		if n == 2 {
			p[0], p[1] = strict(p[0], q, twoQ), strict(p[1], q, twoQ)
			return
		}
		groups, t = 2, n/2
	}
	for ; t > 4; groups, t = 4*groups, t/4 {
		w1, w2 := psi[groups:2*groups], psi[2*groups:4*groups]
		for i := range w1 {
			s1, s2, s3 := w1[i], w2[2*i], w2[2*i+1]
			a, b, c, d := quarters(p[i*t : (i+1)*t])
			for j := range a {
				x0, x2 := ct(a[j], c[j], s1, q, qInv, twoQ)
				x1, x3 := ct(b[j], d[j], s1, q, qInv, twoQ)
				a[j], b[j] = ct(x0, x1, s2, q, qInv, twoQ)
				c[j], d[j] = ct(x2, x3, s3, q, qInv, twoQ)
			}
		}
	}
	// Last two stages on contiguous quads, reduced to [0, q) before the store.
	w1, w2 := psi[n/4:n/2], psi[n/2:n]
	for i := range w1 {
		s1, s2, s3 := w1[i], w2[2*i], w2[2*i+1]
		x := p[4*i : 4*i+4 : 4*i+4]
		x0, x2 := ct(x[0], x[2], s1, q, qInv, twoQ)
		x1, x3 := ct(x[1], x[3], s1, q, qInv, twoQ)
		x0, x1 = ct(x0, x1, s2, q, qInv, twoQ)
		x2, x3 = ct(x2, x3, s3, q, qInv, twoQ)
		x[0], x[1] = strict(x0, q, twoQ), strict(x1, q, twoQ)
		x[2], x[3] = strict(x2, q, twoQ), strict(x3, q, twoQ)
	}
}

// INTT transforms p back to the coefficient domain in place
// (Gentleman–Sande, lazy reduction). N⁻¹ is folded into the last stage, so
// outputs land directly in [0, q).
func (m *Modulus) INTT(p Poly) {
	q, qInv := m.Q, m.qInv
	twoQ := 2 * q
	psiInv := m.psiInvMont
	nInvM, sNInvM := m.nInvMont, m.psiInvNInvMont
	n := m.N
	p = p[:n]
	groups, t := n, 1 // groups blocks of length t are already transformed
	if n >= 8 {
		// First two stages on contiguous quads (N = 2 and 4 are a last pass only).
		w1, w2 := psiInv[n/2:n], psiInv[n/4:n/2]
		for i := range w2 {
			s1, s2, s3 := w1[2*i], w1[2*i+1], w2[i]
			x := p[4*i : 4*i+4 : 4*i+4]
			x0, x1 := gs(x[0], x[1], s1, q, qInv, twoQ)
			x2, x3 := gs(x[2], x[3], s2, q, qInv, twoQ)
			x[0], x[2] = gs(x0, x2, s3, q, qInv, twoQ)
			x[1], x[3] = gs(x1, x3, s3, q, qInv, twoQ)
		}
		groups, t = n/4, 4
	}
	for ; groups > 4; groups, t = groups/4, 4*t {
		w1, w2 := psiInv[groups/2:groups], psiInv[groups/4:groups/2]
		for i := range w2 {
			s1, s2, s3 := w1[2*i], w1[2*i+1], w2[i]
			a, b, c, d := quarters(p[4*i*t : 4*(i+1)*t])
			for j := range a {
				x0, x1 := gs(a[j], b[j], s1, q, qInv, twoQ)
				x2, x3 := gs(c[j], d[j], s2, q, qInv, twoQ)
				a[j], c[j] = gs(x0, x2, s3, q, qInv, twoQ)
				b[j], d[j] = gs(x1, x3, s3, q, qInv, twoQ)
			}
		}
	}
	if groups == 4 {
		// Even log N: the last two stages, N⁻¹ folded into the second.
		s1, s2 := psiInv[2], psiInv[3]
		a, b, c, d := quarters(p)
		for j := range a {
			x0, x1 := gs(a[j], b[j], s1, q, qInv, twoQ)
			x2, x3 := gs(c[j], d[j], s2, q, qInv, twoQ)
			a[j], c[j] = MRed(x0+x2, nInvM, q, qInv), MRed(x0+twoQ-x2, sNInvM, q, qInv)
			b[j], d[j] = MRed(x1+x3, nInvM, q, qInv), MRed(x1+twoQ-x3, sNInvM, q, qInv)
		}
		return
	}
	// Odd log N: the leftover stage, N⁻¹ folded in.
	x, y := p[:n/2], p[n/2:]
	y = y[:len(x)]
	for j := range x {
		u, v := x[j], y[j]
		x[j], y[j] = MRed(u+v, nInvM, q, qInv), MRed(u+twoQ-v, sNInvM, q, qInv)
	}
}
