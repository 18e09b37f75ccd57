// Package clock is the one time source of core, storage, api and remote:
// each holder keeps a Clock in a field, Wall unless a test swaps in a fake
// that moves only when told.
package clock

import "time"

// Clock reads the time and waits on it.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
}

// Wall is the host's clock.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                         { return time.Now() }
func (wall) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wall) After(d time.Duration) <-chan time.Time { return time.After(d) }
