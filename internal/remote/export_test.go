package remote

import "repro/internal/clock"

// MaxConcurrentReads exposes the wire read bound to the external tests.
const MaxConcurrentReads = maxConcurrentReads

// SetClock swaps c's backoff clock for the external tests' fake.
func SetClock(c *Client, clk clock.Clock) { c.clock = clk }
