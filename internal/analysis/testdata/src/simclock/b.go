// Helper cases: simclock is intraprocedural, so a wrapped clock read is
// reported once, at the time.Now inside the helper, and callers stay clean.
package simclock

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "wall-clock call time.Now"
}

func viaStamp() int64 {
	return stamp() + 1
}
