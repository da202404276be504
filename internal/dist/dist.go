// Package dist models the switching-delay distributions of Section II-B.
//
// The paper measures the delay a device incurs when it changes network and
// fits the measurements per technology: switching to WiFi follows a
// Johnson's S_U distribution and switching to cellular a (very heavy-tailed)
// Student's t distribution. Both are truncated into [0, SlotSeconds]: a
// negative fitted sample is not a physical delay, and a delay longer than
// one 15 s time slot simply costs the whole slot.
//
// Every sampler draws from an explicit *rand.Rand, so simulations remain a
// pure function of their seed (see internal/rngutil).
package dist

import (
	"math"
	"math/rand"
)

// SlotSeconds is the paper's time-slot length (15 s); delays are capped at
// one slot because a switch never costs more than the slot it happens in.
const SlotSeconds = 15

// Sampler draws one value (a delay in seconds) from a distribution.
type Sampler interface {
	// Sample returns one draw using rng as the only source of randomness.
	Sample(rng *rand.Rand) float64
}

// Meaner is implemented by samplers whose expected value is analytic; it
// feeds the tolerance checks of the sampler test suite.
type Meaner interface {
	// Mean returns the distribution's expected value.
	Mean() float64
}

// Constant always returns Value (delay-free runs use Constant{Value: 0}).
type Constant struct {
	Value float64
}

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Mean implements Meaner.
func (c Constant) Mean() float64 { return c.Value }

// Uniform draws uniformly from [Low, High).
type Uniform struct {
	Low, High float64
}

// Sample implements Sampler.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Low + (u.High-u.Low)*rng.Float64()
}

// Mean implements Meaner.
func (u Uniform) Mean() float64 { return (u.Low + u.High) / 2 }

// Exponential draws from an exponential distribution with the given mean.
type Exponential struct {
	MeanValue float64
}

// Sample implements Sampler.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return e.MeanValue * rng.ExpFloat64()
}

// Mean implements Meaner.
func (e Exponential) Mean() float64 { return e.MeanValue }

// Normal draws from a Gaussian.
type Normal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// Mean implements Meaner.
func (n Normal) Mean() float64 { return n.Mu }

// JohnsonSU is Johnson's S_U distribution with shape parameters Gamma and
// Delta and linear parameters Loc and Scale: if Z is standard normal,
// X = Loc + Scale·sinh((Z−Gamma)/Delta).
type JohnsonSU struct {
	Gamma, Delta float64
	Loc, Scale   float64
}

// Sample implements Sampler.
func (j JohnsonSU) Sample(rng *rand.Rand) float64 {
	return j.at(rng.NormFloat64())
}

// at maps a standard normal draw z to X.
func (j JohnsonSU) at(z float64) float64 {
	return j.Loc + j.Scale*math.Sinh((z-j.Gamma)/j.Delta)
}

// minRejectScale is the smallest Scale and Delta for which zBelow offers a
// bound. From there up, the margin's gap in X (at least Scale·m/2) dwarfs
// the absolute rounding error of a subnormal intermediate, which a margin
// relative to the parameters would not cover.
const minRejectScale = 1e-100

// zBelow returns a zLo such that every standard normal draw z < zLo maps
// to X < low however the map's operations round, or −Inf when there is
// none to offer. Exactly, X < low ⇔ z < γ + δ·asinh((low−Loc)/Scale) for
// Scale, δ > 0. The returned zLo lies below that point by a margin of δ·m
// with m = 1e-6·(1 + |asinh(·)| + |γ|/δ + (|low|+|Loc|)/Scale), about ten
// orders of magnitude above the rounding of each term, so a z in the
// margin is simply not rejected early. It returns −Inf when Scale or δ is
// below minRejectScale (or NaN), and when zLo is not finite, which covers
// NaN parameters and an infinite low.
func (j JohnsonSU) zBelow(low float64) float64 {
	if !(j.Scale >= minRejectScale && j.Delta >= minRejectScale) {
		return math.Inf(-1)
	}
	t := math.Asinh((low - j.Loc) / j.Scale)
	m := 1e-6 * (1 + math.Abs(t) + math.Abs(j.Gamma)/j.Delta + (math.Abs(low)+math.Abs(j.Loc))/j.Scale)
	zLo := j.Gamma + j.Delta*(t-m)
	if math.IsNaN(zLo) || math.IsInf(zLo, 0) {
		return math.Inf(-1)
	}
	return zLo
}

// Mean implements Meaner (the S_U mean is analytic:
// Loc − Scale·exp(Delta⁻²/2)·sinh(Gamma/Delta)).
func (j JohnsonSU) Mean() float64 {
	return j.Loc - j.Scale*math.Exp(1/(2*j.Delta*j.Delta))*math.Sinh(j.Gamma/j.Delta)
}

// StudentT is a location-scale Student's t distribution. With DF below 1
// (the paper's cellular fit) the raw distribution has no mean; it is only
// usable truncated.
type StudentT struct {
	DF         float64
	Loc, Scale float64
}

// Sample implements Sampler using Bailey's polar method (1994), which needs
// no gamma sampling and works for fractional degrees of freedom.
func (t StudentT) Sample(rng *rand.Rand) float64 {
	for {
		u := 2*rng.Float64() - 1
		v := 2*rng.Float64() - 1
		w := u*u + v*v
		if w > 1 || w == 0 {
			continue
		}
		return t.Loc + t.Scale*u*math.Sqrt(t.DF*(math.Pow(w, -2/t.DF)-1)/w)
	}
}

// Truncated restricts S to [Low, High] by rejection, falling back to
// clamping after maxTruncAttempts draws so a pathological underlying
// distribution cannot stall a simulation.
type Truncated struct {
	S         Sampler
	Low, High float64
}

const maxTruncAttempts = 64

// Sample implements Sampler.
func (t Truncated) Sample(rng *rand.Rand) float64 {
	if j, ok := t.S.(JohnsonSU); ok {
		return truncatedJohnsonSU(j, j.zBelow(t.Low), t.Low, t.High, rng)
	}
	return truncated(t.S.Sample, t.Low, t.High, rng)
}

// truncated is the rejection loop of Truncated over an explicit draw
// function, shared between the interface path and the devirtualized batch
// path so both produce identical streams.
func truncated(draw func(*rand.Rand) float64, low, high float64, rng *rand.Rand) float64 {
	var x float64
	for i := 0; i < maxTruncAttempts; i++ {
		x = draw(rng)
		if x >= low && x <= high {
			return x
		}
	}
	return math.Min(math.Max(x, low), high)
}

// truncatedJohnsonSU is truncated for a Johnson S_U draw, shared by
// Truncated.Sample and SampleInto. An attempt whose z is below zLo (see
// JohnsonSU.zBelow) would land below low, so it is rejected before the
// sinh. The last attempt always computes x, which the clamp needs. Every
// attempt draws the same z as JohnsonSU.Sample, and every accepted x has
// the same bits, so the stream and the result match truncated exactly.
func truncatedJohnsonSU(j JohnsonSU, zLo, low, high float64, rng *rand.Rand) float64 {
	var x float64
	for i := 0; i < maxTruncAttempts; i++ {
		z := rng.NormFloat64()
		if z < zLo && i < maxTruncAttempts-1 {
			continue
		}
		x = j.at(z)
		if x >= low && x <= high {
			return x
		}
	}
	return math.Min(math.Max(x, low), high)
}

// SampleInto fills dst[i] with one draw from s using rngs[i], i.e. one
// independent sample per device stream. The simulator batches all switching
// devices of one technology into a single SampleInto call per slot, so the
// slot loop pays one dynamic dispatch per technology rather than one per
// switch; the known concrete samplers are devirtualized below and their
// draw loops inline. Each draw consumes exactly what s.Sample(rngs[i])
// would, so per-device random streams are unchanged by batching.
func SampleInto(s Sampler, rngs []*rand.Rand, dst []float64) {
	switch c := s.(type) {
	case Truncated:
		// The default delay models are Truncated{JohnsonSU} and
		// Truncated{StudentT}; specializing the inner sampler removes the
		// second dispatch layer from the rejection loop.
		switch inner := c.S.(type) {
		case JohnsonSU:
			zLo := inner.zBelow(c.Low)
			for i, rng := range rngs {
				dst[i] = truncatedJohnsonSU(inner, zLo, c.Low, c.High, rng)
			}
		case StudentT:
			for i, rng := range rngs {
				dst[i] = truncated(inner.Sample, c.Low, c.High, rng)
			}
		default:
			for i, rng := range rngs {
				dst[i] = c.Sample(rng)
			}
		}
	case Constant:
		for i := range rngs {
			dst[i] = c.Value
		}
	case Uniform:
		for i, rng := range rngs {
			dst[i] = c.Sample(rng)
		}
	case Normal:
		for i, rng := range rngs {
			dst[i] = c.Sample(rng)
		}
	case Exponential:
		for i, rng := range rngs {
			dst[i] = c.Sample(rng)
		}
	default:
		for i, rng := range rngs {
			dst[i] = s.Sample(rng)
		}
	}
}

// DefaultWiFiDelay returns the Section II-B switching-to-WiFi delay model:
// a fitted Johnson's S_U truncated into one slot. Its mode sits near half a
// second with a tail of a few seconds, matching the paper's measurements.
func DefaultWiFiDelay() Sampler {
	return Truncated{
		S:    JohnsonSU{Gamma: 0.2982, Delta: 1.0639, Loc: 0.2054, Scale: 0.5479},
		Low:  0,
		High: SlotSeconds,
	}
}

// DefaultCellularDelay returns the Section II-B switching-to-cellular delay
// model: a fitted Student's t (df < 1, hence extremely heavy-tailed)
// truncated into one slot.
func DefaultCellularDelay() Sampler {
	return Truncated{
		S:    StudentT{DF: 0.4393, Loc: 0.4957, Scale: 0.0598},
		Low:  0,
		High: SlotSeconds,
	}
}
