package storage

import "repro/internal/clock"

// SetClock swaps r's health clock for the external tests' fake.
func SetClock(r *Replicated, c clock.Clock) { r.clock = c }
