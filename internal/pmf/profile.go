package pmf

// Profile augments an execution-time PMF with precomputed prefix sums so
// that the two quantities mapping heuristics evaluate millions of times —
// a task's success probability and its expected machine-free time against
// a candidate queue tail — cost O(|tail|) instead of a full O(|tail|·|exec|)
// convolution. Full convolutions are then only needed when an assignment is
// actually committed (to update the tail) or when a queue chain is walked.
//
// The hot table is interleaved: cell i holds both scalars phase one reads
// at the tick start+i, so each tail impulse DropEval visits costs one
// 16-byte load (cells are 16-byte aligned, so never split across cache
// lines). The partial expectation lives in a cold side table that only
// PartialMean reads; at 24 bytes per slot the profile is no larger than
// separate CDF, CCDF and partial-expectation tables.
type Profile struct {
	p     *PMF
	start int64
	cells []profileCell
	pex   []float64 // pex[i] = E[X · 1(X <= start+i)]
	mean  float64

	// The last slot's CDF, CCDF and partial expectation: every query past
	// the support clamps onto them.
	lastCDF, lastCCDF, lastPex float64
}

// profileCell is one slot of a Profile's interleaved table.
type profileCell struct {
	cdf    float64 // P(X <= start+i)
	capped float64 // E[min(X, start+i)] = pex[i] + (start+i)·(1 − cdf)
}

// cappedMean returns pex + d·ccdf, the E[min(X, d)] decomposition
// E[X·1(X<=d)] + d·P(X>d). The explicit conversion rounds the product
// before the add, so no architecture fuses the two into an FMA: the
// precomputed cells and the past-the-support formula round identically.
func cappedMean(pex, d, ccdf float64) float64 {
	return pex + float64(d*ccdf)
}

// NewProfile precomputes prefix statistics for p. The PMF is retained by
// reference and must not be mutated afterwards.
func NewProfile(p *PMF) *Profile {
	pr := &Profile{p: p, start: p.start, mean: p.Mean()}
	if len(p.probs) == 0 {
		return pr
	}
	pr.cells = make([]profileCell, len(p.probs))
	pr.pex = make([]float64, len(p.probs))
	var c, e float64
	for i, v := range p.probs {
		x := float64(p.start + int64(i))
		c += v
		e += v * x
		pr.cells[i] = profileCell{cdf: c, capped: cappedMean(e, x, 1-c)}
		pr.pex[i] = e
	}
	pr.lastCDF, pr.lastCCDF, pr.lastPex = c, 1-c, e
	return pr
}

// PMF returns the underlying distribution.
func (pr *Profile) PMF() *PMF { return pr.p }

// Mean returns E[X].
func (pr *Profile) Mean() float64 { return pr.mean }

// at returns CDF(d) and MeanCappedAt(d) — the per-impulse lookup shared by
// DropEval and DropSuccess. The three regions of d:
//
//   - inside the support: one cell load;
//   - past the support: the last slot's CDF, and the last partial
//     expectation plus d times the last CCDF (X <= d surely, so this is
//     E[X] up to the rounding residue 1 − Σp the last CCDF carries);
//   - below the support, or an empty profile: 0 and d (X > d surely, so
//     min(X, d) = d).
//
// The cells hold exactly the sums the capped-mean formula computes at
// their tick (the same operands, the same rounding), so the table and the
// formula agree bit for bit wherever both apply.
func (pr *Profile) at(d int64) (cdf, capped float64) {
	i := d - pr.start
	if uint64(i) < uint64(len(pr.cells)) {
		c := pr.cells[i]
		return c.cdf, c.capped
	}
	if i < 0 || len(pr.cells) == 0 {
		return 0, float64(d)
	}
	return pr.lastCDF, cappedMean(pr.lastPex, float64(d), pr.lastCCDF)
}

// CDF returns P(X <= t).
func (pr *Profile) CDF(t int64) float64 {
	c, _ := pr.at(t)
	return c
}

// PartialMean returns E[X · 1(X <= t)].
func (pr *Profile) PartialMean(t int64) float64 {
	i := t - pr.start
	switch {
	case i < 0:
		return 0
	case i >= int64(len(pr.pex)):
		return pr.lastPex // 0 for an empty profile
	}
	return pr.pex[i]
}

// CCDF returns the suffix mass P(X > t) = 1 − CDF(t) — the probability a
// task whose execution profile is pr misses a deadline t ticks away — as
// an O(1) lookup. Below (or without) support the result saturates at 1.
func (pr *Profile) CCDF(t int64) float64 {
	return 1 - pr.CDF(t)
}

// MeanCappedAt returns E[min(X, d)] = E[X·1(X<=d)] + d·P(X>d).
func (pr *Profile) MeanCappedAt(d int64) float64 {
	_, m := pr.at(d)
	return m
}

// DropSuccess computes the success probability of a task with the given
// deadline whose execution profile is exec and whose start time is
// distributed as prev — without materializing the convolution:
//
//	P(success) = Σ_{s < δ} prev(s) · P(exec <= δ − s)
//
// The formula is identical under all three dropping scenarios: starts at or
// after the deadline contribute nothing either way (under NoDrop their
// completion necessarily lands after δ because executions take at least one
// tick — a precondition PET profiles guarantee; under PendingDrop/Evict the
// task is dropped before starting). It matches ConvolveDrop's Success field
// exactly, which the property tests assert.
func DropSuccess(prev *PMF, exec *Profile, deadline int64) float64 {
	if prev.IsZero() {
		return 0
	}
	var s float64
	// Only slots strictly before the deadline contribute; prev's support is
	// ascending, so the prefix below the boundary index is exactly the set
	// the per-element break used to visit, in the same order.
	cut := startsBefore(prev, deadline)
	gap := deadline - prev.start // exec's deadline gap for the slot at offset 0
	if nz := prev.nz; nz != nil {
		for _, off := range nz {
			if int64(off) >= cut {
				break
			}
			c, _ := exec.at(gap - int64(off))
			s += prev.probs[off] * c
		}
	} else {
		for i, a := range prev.probs[:cut] {
			if a == 0 {
				continue
			}
			c, _ := exec.at(gap - int64(i))
			s += a * c
		}
	}
	if s > 1 {
		s = 1 // floating-point accumulation guard
	}
	return s
}

// startsBefore returns the count of prev's dense slots whose tick lies
// strictly before the deadline, clamped into [0, len].
func startsBefore(prev *PMF, deadline int64) int64 {
	cut := deadline - prev.start
	if cut < 0 {
		return 0
	}
	if cut > int64(len(prev.probs)) {
		return int64(len(prev.probs))
	}
	return cut
}

// DropExpectedFree computes the mean of ConvolveDrop(prev, exec, δ, mode)'s
// Free PMF in O(|prev|):
//
//	PendingDrop: Σ_{s<δ} prev(s)·(s + E[exec])        + Σ_{s>=δ} prev(s)·s
//	Evict:       Σ_{s<δ} prev(s)·(s + E[min(exec,δ−s)]) + Σ_{s>=δ} prev(s)·s
//	NoDrop:      E[prev] + E[exec]
func DropExpectedFree(prev *PMF, exec *Profile, deadline int64, mode DropMode) float64 {
	if prev.IsZero() {
		return 0
	}
	if mode == NoDrop {
		return prev.Mean() + exec.Mean()
	}
	var e, mass float64
	for i, a := range prev.probs {
		if a == 0 {
			continue
		}
		st := prev.start + int64(i)
		mass += a
		switch {
		case st >= deadline:
			e += a * float64(st)
		case mode == Evict:
			e += a * (float64(st) + exec.MeanCappedAt(deadline-st))
		default: // PendingDrop
			e += a * (float64(st) + exec.Mean())
		}
	}
	if mass == 0 {
		return 0
	}
	return e / mass
}

// DropEval computes DropSuccess and DropExpectedFree in one scan of prev —
// the two scalars phase-one mapping evaluates for every (task, machine)
// pair. The accumulation order of each result replicates its standalone
// function exactly, so DropEval is a bit-identical drop-in for the pair of
// calls at half the tail-scanning cost. Each slot before the deadline
// costs one Profile.at lookup: a single interleaved cell load whenever the
// deadline gap falls inside exec's support.
func DropEval(prev *PMF, exec *Profile, deadline int64, mode DropMode) (success, expFree float64) {
	if prev.IsZero() {
		return 0, 0
	}
	if mode == NoDrop {
		return DropSuccess(prev, exec, deadline), prev.Mean() + exec.Mean()
	}
	// One boundary split replaces the per-element deadline test, and the
	// loop-invariant mode test is hoisted into dedicated loops: ascending
	// support means every slot before the boundary takes the mode branch
	// and every slot after it takes the carried branch, so the split loops
	// visit the same elements in the same order as the single switch-laden
	// scan they replace — bit-identical sums at a fraction of the branches.
	cut := startsBefore(prev, deadline)
	gap := deadline - prev.start // exec's deadline gap for the slot at offset 0
	em := exec.Mean()
	var s, e, mass float64
	if nz := prev.nz; nz != nil {
		// Sparse fast path: a compacted tail stores few impulses over a
		// wide dense support; walking the non-zero index skips only exact
		// zeros, so the sums are bit-identical to the dense scan below.
		nzCut := 0
		for nzCut < len(nz) && int64(nz[nzCut]) < cut {
			nzCut++
		}
		probs := prev.probs
		if mode == Evict {
			for _, off := range nz[:nzCut] {
				a := probs[off]
				c, m := exec.at(gap - int64(off))
				mass += a
				s += a * c
				e += a * (float64(prev.start+int64(off)) + m)
			}
		} else {
			for _, off := range nz[:nzCut] {
				a := probs[off]
				c, _ := exec.at(gap - int64(off))
				mass += a
				s += a * c
				e += a * (float64(prev.start+int64(off)) + em)
			}
		}
		for _, off := range nz[nzCut:] {
			a := probs[off]
			mass += a
			e += a * float64(prev.start+int64(off))
		}
	} else {
		if mode == Evict {
			for i, a := range prev.probs[:cut] {
				if a == 0 {
					continue
				}
				c, m := exec.at(gap - int64(i))
				mass += a
				s += a * c
				e += a * (float64(prev.start+int64(i)) + m)
			}
		} else {
			for i, a := range prev.probs[:cut] {
				if a == 0 {
					continue
				}
				c, _ := exec.at(gap - int64(i))
				mass += a
				s += a * c
				e += a * (float64(prev.start+int64(i)) + em)
			}
		}
		base := prev.start + cut
		for i, a := range prev.probs[cut:] {
			if a == 0 {
				continue
			}
			mass += a
			e += a * float64(base+int64(i))
		}
	}
	if s > 1 {
		s = 1 // floating-point accumulation guard
	}
	if mass == 0 {
		return s, 0
	}
	return s, e / mass
}
