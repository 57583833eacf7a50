package cost

// FLOPs counts floating-point operations. It is a defined type rather than a
// bare float64 so Go's type checker rejects arithmetic that mixes FLOP counts
// with seconds or bytes. Scaling by a dimensionless factor (2 * f) stays
// legal; dividing by a rate requires an explicit float64 conversion at the
// boundary, which is exactly where a unit error would otherwise hide.
type FLOPs float64

// Float returns the count as a bare float64 for rate arithmetic
// (FLOPs / FLOP-per-second = seconds).
func (f FLOPs) Float() float64 { return float64(f) }
