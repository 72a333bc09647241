package train

// Unrolled EM slab kernels. The itcam/ttcam E-steps spend nearly all
// their time in two K-length loops per rated cell: the posterior dot
// product (Equations 4/5/13) and the paired sufficient-statistic
// accumulation (Equations 8/9/15/16). Both are extracted here as
// 4-wide manually unrolled, bounds-check-eliminated kernels.
//
// This file holds only straight-line kernel code: scripts/check_bce.sh
// compiles it with -gcflags=-d=ssa/check_bce and fails on any
// per-element bounds check ("Found IsInBounds"). The loops use the
// slice-forward idiom — consume four elements, re-slice every operand
// by four — which the prove pass eliminates entirely; only the O(1)
// reslice checks at the loop boundaries remain.
//
// Bit-identity contract: trained parameters are pinned by pre-refactor
// gob fixtures, so neither kernel may reassociate floating-point sums.
// DotInto keeps a single accumulator in ascending index order — the
// exact operation sequence of the scalar loop it replaced — and
// AddScaledPair and AddScaled are purely elementwise (no
// cross-iteration dependence at all), so unrolling cannot change any
// one's results.

// DotInto computes dst[i] = a[i]·b[i] and returns Σ dst[i], accumulated
// in strictly ascending index order. All three slices must have equal
// length.
//
//tcam:hotpath
func DotInto(dst, a, b []float64) float64 {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("train: DotInto length mismatch")
	}
	var s float64
	for len(dst) >= 4 && len(a) >= 4 && len(b) >= 4 {
		p0 := a[0] * b[0]
		dst[0] = p0
		s += p0
		p1 := a[1] * b[1]
		dst[1] = p1
		s += p1
		p2 := a[2] * b[2]
		dst[2] = p2
		s += p2
		p3 := a[3] * b[3]
		dst[3] = p3
		s += p3
		dst = dst[4:]
		a = a[4:]
		b = b[4:]
	}
	a = a[:len(dst)]
	b = b[:len(dst)]
	for j := range dst {
		p := a[j] * b[j]
		dst[j] = p
		s += p
	}
	return s
}

// AddScaledPair adds scale·src[i] into both dst1[i] and dst2[i],
// computing each product exactly once (the E-step adds the same
// posterior mass to the θ and ϕ statistics). All three slices must have
// equal length.
//
//tcam:hotpath
func AddScaledPair(dst1, dst2 []float64, scale float64, src []float64) {
	if len(dst1) != len(src) || len(dst2) != len(src) {
		panic("train: AddScaledPair length mismatch")
	}
	for len(src) >= 4 && len(dst1) >= 4 && len(dst2) >= 4 {
		c0 := scale * src[0]
		dst1[0] += c0
		dst2[0] += c0
		c1 := scale * src[1]
		dst1[1] += c1
		dst2[1] += c1
		c2 := scale * src[2]
		dst1[2] += c2
		dst2[2] += c2
		c3 := scale * src[3]
		dst1[3] += c3
		dst2[3] += c3
		src = src[4:]
		dst1 = dst1[4:]
		dst2 = dst2[4:]
	}
	dst1 = dst1[:len(src)]
	dst2 = dst2[:len(src)]
	for j, x := range src {
		c := scale * x
		dst1[j] += c
		dst2[j] += c
	}
}

// AddScaled adds scale·src[i] into dst[i]: AddScaledPair with one
// destination, for E-steps that accumulate no global statistics
// (fold-in). Each product is formed exactly as AddScaledPair forms it,
// so dst receives bit-identical sums. dst and src must have equal
// length.
//
//tcam:hotpath
func AddScaled(dst []float64, scale float64, src []float64) {
	if len(dst) != len(src) {
		panic("train: AddScaled length mismatch")
	}
	for len(src) >= 4 && len(dst) >= 4 {
		c0 := scale * src[0]
		dst[0] += c0
		c1 := scale * src[1]
		dst[1] += c1
		c2 := scale * src[2]
		dst[2] += c2
		c3 := scale * src[3]
		dst[3] += c3
		src = src[4:]
		dst = dst[4:]
	}
	dst = dst[:len(src)]
	for j, x := range src {
		c := scale * x
		dst[j] += c
	}
}
