package core

import (
	"sync"
	"time"
)

// fakeClock is the clock core's tests hand a Manager, a Service or a
// restore's view in place of clock.Wall: time moves only when told. Now
// returns the time and then steps it by tick, so with a tick every reading
// is distinct and a ledger's stages can be summed exactly; Sleep and Advance
// move it; After fires once the clock has passed its deadline.
type fakeClock struct {
	mu     sync.Mutex
	timers sync.Cond // signalled whenever After registers a timer
	now    time.Time
	last   time.Time // what Now last returned
	tick   time.Duration
	after  []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock(tick time.Duration) *fakeClock {
	c := &fakeClock{now: time.Unix(1<<30, 0), tick: tick}
	c.timers.L = &c.mu
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = c.now
	c.now = c.now.Add(c.tick)
	return c.last
}

func (c *fakeClock) Sleep(d time.Duration) { c.Advance(d) }

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.after = append(c.after, fakeTimer{c.now.Add(d), ch})
	c.fire()
	c.timers.Broadcast()
	return ch
}

// Advance moves the clock by d and fires every timer it passes.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.fire()
}

func (c *fakeClock) fire() {
	pending := c.after[:0]
	for _, w := range c.after {
		if w.at.After(c.now) {
			pending = append(pending, w)
		} else {
			w.ch <- c.now
		}
	}
	c.after = pending
}

// peek reads the clock without stepping it.
func (c *fakeClock) peek() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// sinceLast is how far the last reading is past start: a span of readings'
// wall time, from its first (which returns start) to its last.
func (c *fakeClock) sinceLast(start time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last.Sub(start)
}

// awaitTimer blocks until some goroutine waits on After.
func (c *fakeClock) awaitTimer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.after) == 0 {
		c.timers.Wait()
	}
}
