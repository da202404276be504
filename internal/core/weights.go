package core

import (
	"math"
	"math/rand"
)

// weightSet maintains the EXP3 family's arm weights with constant-time
// updates, following the structure of the "Fast EXP3" implementations of
// Sato & Ito: instead of renormalizing every weight after each block, it
// keeps
//
//   - logW, the raw log-weights (the shift-invariant source of truth);
//   - wExp[i] = exp(logW[i] − shift), linear-space weights under a lazily
//     refreshed shift;
//   - their running sum sumW and a Fenwick (binary indexed) tree over wExp
//     for weight-proportional sampling.
//
// A block's multiplicative update touches one arm, so bump costs O(log k)
// (the tree update) instead of the O(k) exp-and-renormalize of the naive
// implementation, and a draw costs O(log k) via prefix-sum descent instead
// of an O(k) cumulative scan. The shift is only recomputed — an O(k)
// reshift — when an exponent outgrows the safe range, which happens once
// per ~weightReshiftSpan of accumulated log-weight growth, so its cost is
// amortized O(1) per block. Since block lengths grow geometrically, the
// per-slot cost of all weight maintenance is amortized O(1).
type weightSet struct {
	logW  []float64
	wExp  []float64
	tree  []float64 // 1-based Fenwick tree over wExp
	sumW  float64
	shift float64
}

// weightReshiftSpan bounds logW[i]−shift before a reshift: exp(300) ≈
// 2e130, far from the float64 overflow point even summed over many arms.
const weightReshiftSpan = 300

// reset resizes the set to k arms reusing the existing buffers and returns
// the zeroed log-weight slice for the caller to fill; the caller must then
// call reshift. Pooled policies use this to re-seed weights without
// allocating.
func (w *weightSet) reset(k int) []float64 {
	w.logW = resizeFloats(w.logW, k)
	w.wExp = resizeFloats(w.wExp, k)
	w.tree = resizeFloats(w.tree, k+1)
	return w.logW
}

// resizeFloats returns a zeroed float slice of length n, reusing s's backing
// array when it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeInts is resizeFloats for int slices.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// reshift renormalizes the linear-space view around the current maximum
// log-weight and rebuilds the sampling tree. O(k).
func (w *weightSet) reshift() {
	w.shift = math.Inf(-1)
	for _, lw := range w.logW {
		if lw > w.shift {
			w.shift = lw
		}
	}
	w.sumW = 0
	for i := range w.tree {
		w.tree[i] = 0
	}
	for i, lw := range w.logW {
		w.wExp[i] = math.Exp(lw - w.shift)
		w.sumW += w.wExp[i]
		w.treeAdd(i, w.wExp[i])
	}
}

// bump applies the multiplicative update w_i ← w_i·exp(delta), delta ≥ 0.
// O(log k) amortized.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) bump(i int, delta float64) {
	w.logW[i] += delta
	if w.logW[i]-w.shift > weightReshiftSpan {
		w.reshift()
		return
	}
	next := math.Exp(w.logW[i] - w.shift)
	diff := next - w.wExp[i]
	w.wExp[i] = next
	w.sumW += diff
	w.treeAdd(i, diff)
}

// extrema returns the argmax (the lowest index on ties), max and min of
// the selection distribution p_i = (1−γ)·w_i/Σw + γ/k (line 2 of
// Algorithm 1). 1−γ, γ/k and Σw are loop-invariant, so each arm costs one
// division; every p_i is computed by the same operations in the same order
// as prob's. The extrema use strict comparisons, not the min and max
// builtins, whose NaN and −0 rules differ.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) extrema(gamma float64) (argmax int, maxP, minP float64) {
	keep, explore, sum := 1-gamma, gamma/float64(len(w.logW)), w.sumW
	wExp := w.wExp
	maxP = keep*wExp[0]/sum + explore
	minP = maxP
	for i := 1; i < len(wExp); i++ {
		p := keep*wExp[i]/sum + explore
		if p > maxP {
			maxP, argmax = p, i
		}
		if p < minP {
			minP = p
		}
	}
	return argmax, maxP, minP
}

// prob returns one arm's selection probability in O(1).
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) prob(i int, gamma float64) float64 {
	return (1-gamma)*w.wExp[i]/w.sumW + gamma/float64(len(w.logW))
}

// sample draws an arm with probability proportional to its weight via an
// O(log k) prefix-sum descent of the Fenwick tree. Callers mix in the γ/k
// exploration term by decomposition (see SmartEXP3.sampleProbs).
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) sample(rng *rand.Rand) int {
	v := rng.Float64() * w.sumW
	return w.search(v)
}

// treeAdd adds diff to element i (0-based) of the Fenwick tree.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) treeAdd(i int, diff float64) {
	for j := i + 1; j < len(w.tree); j += j & (-j) {
		w.tree[j] += diff
	}
}

// search returns the smallest 0-based index whose prefix sum exceeds v.
// Floating-point drift in sumW is absorbed by clamping to the last arm.
//
//repolint:allocfree via TestSmartEXP3WarmPathAllocs
func (w *weightSet) search(v float64) int {
	n := len(w.tree) - 1
	bit := 1
	for bit<<1 <= n {
		bit <<= 1
	}
	idx := 0
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= n && w.tree[next] <= v {
			idx = next
			v -= w.tree[next]
		}
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
