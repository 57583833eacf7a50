package sim

// Time is a duration or instant on the simulated clock, in seconds. It is a
// defined type rather than a bare float64 so Go's type checker rejects
// arithmetic that mixes simulated seconds with FLOP counts or byte sizes:
// Time+Time and Time compared to Time typecheck, Time+Bytes does not without
// an explicit conversion, which marks the spot a reader should check. A
// conversion that launders a unit (Time(bytes)) still compiles; the exec
// tests catch one by the wrong numbers it yields (DESIGN.md §11.6).
type Time float64

// Seconds returns the value as a bare float64 for boundary arithmetic
// (multiplying by a rate, formatting, feeding the float64-based public APIs).
func (t Time) Seconds() float64 { return float64(t) }

// Bytes is a payload or memory size in bytes, a defined type for the same
// dimensional-safety reason as Time.
type Bytes int64

// Int64 returns the size as a bare int64 for boundary arithmetic.
func (b Bytes) Int64() int64 { return int64(b) }
