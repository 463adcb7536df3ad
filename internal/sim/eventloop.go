//go:build go1.23

// The calendar-queue event-loop scheduler (the default).
//
// Every simulated CPU is an iter.Pull coroutine: a body must be able to
// suspend mid-call-stack, and a coroutine does so without a goroutine
// handoff. Run's goroutine runs the loop that resumes one CPU at a time
// and gets control back when that CPU yields, blocks or halts. All
// scheduling decisions still run inline on whichever CPU is giving up
// control: it picks its successor from the calendar queue, stores it in
// e.succ and switches to the run loop, which resumes the successor. A
// CPU that picks itself keeps running without a switch. iter.Pull's race
// annotations on every switch are the happens-before edges that order
// the CPUs' memory accesses, so the engine stays race-detector-clean
// without locks.
//
// State transitions (all on the running CPU, mirroring the legacy
// engine's decision points exactly, except the halt step, which runs in
// the run loop once the body has returned):
//
//	Yield fast: queue minimum would lose to the caller → keep running.
//	Yield slow: insert self, pop next, switch; resumed when re-picked.
//	Block:      mark Waiting (not queued), pop next, switch; an empty
//	            queue here is a deadlock.
//	Unblock:    mark Ready at the wake time and insert into the queue.
//	Halt:       body returned; the run loop pops next and resumes it, or
//	            finishes the run when this was the last live CPU.
//
// Fatal conditions (deadlock, MaxCycles, body panic, a panicking
// TieBreak hook) end the run. One detected inside Yield/Block poisons
// the engine, records the verdict and unwinds the running body with
// poisonedEngine; iter.Pull hands a body's panic to the run loop, and
// the run loop itself detects the halt-step fatals. Run then drains: it
// calls stop() on every other started context, which makes a parked
// CPU's yield return false so Yield unwinds it with poisonedEngine, and
// re-raises the verdict. The drain also runs when a body's
// runtime.Goexit reaches the run loop, so a recovered Run, or one whose
// caller's goroutine exits, never leaks a parked context.
package sim

import (
	"fmt"
	"iter"
)

// runEvent is Run for the event-loop scheduler.
func (e *Engine) runEvent(bodies []func(*P)) {
	e.cal.init(len(e.procs))
	// cur is the context being resumed, nil while the run loop itself
	// decides: a fatal raised out of cur came from its body or its
	// Yield/Block.
	var cur *P
	completed := false
	defer func() {
		if completed {
			return
		}
		r := recover() // nil while a body's runtime.Goexit unwinds Run
		if cur != nil {
			cur.state = Halted
			if r != nil && !e.poisoned {
				r = fmt.Errorf("sim: CPU %d panicked at cycle %d: %v", cur.ID, cur.time, r)
			}
		}
		if r != nil && e.poisoned {
			r = e.verdict
		}
		e.stopContexts()
		if r != nil {
			panic(r)
		}
	}()

	for i, p := range e.procs {
		var body func(*P)
		if i < len(bodies) {
			body = bodies[i]
		}
		if body == nil || p.started {
			p.state = Halted
			continue
		}
		p.started = true
		p.next, p.stop = iter.Pull(e.context(p, body))
		e.cal.insert(p)
		e.live++
	}
	if e.live == 0 {
		completed = true
		return
	}

	p := e.dispatch()
	for {
		cur = p
		_, yielded := p.next()
		cur = nil
		if yielded {
			p = e.succ
			continue
		}
		p.state = Halted
		if e.poisoned {
			// The body recovered its poisonedEngine unwind and returned.
			panic(e.verdict)
		}
		if e.live--; e.live == 0 {
			break
		}
		p = e.dispatch()
	}
	completed = true
}

// context is the coroutine body hosting one CPU. iter.Pull does not
// start it until the CPU is first resumed, so a context stopped before
// then never runs its body.
func (e *Engine) context(p *P, body func(*P)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	}
}

// switchFrom suspends the running CPU p and hands next to the run loop to
// resume. It returns when p is resumed, or unwinds p's body when the
// drain stops it instead.
func (e *Engine) switchFrom(p, next *P) {
	e.succ = next
	if !p.yield(struct{}{}) {
		panic(poisonedEngine{})
	}
}

// yieldEvent is Yield for the event loop; p is the running CPU.
func (e *Engine) yieldEvent(p *P) {
	if e.poisoned {
		panic(poisonedEngine{})
	}
	if !e.running {
		panic(fmt.Sprintf("sim: Yield by CPU %d outside Run", p.ID))
	}
	// Fast path: reproduce the legacy yieldFast decision from the queue
	// minimum alone. The queue holds exactly the ready non-running CPUs,
	// so min q loses to p iff no ready CPU beats p under (time, id) —
	// unless they are tied and a TieBreak hook must be consulted.
	if e.MaxCycles == 0 || p.time <= e.MaxCycles {
		q := e.cal.peek()
		if q == nil || q.time > p.time || (q.time == p.time && e.TieBreak == nil && q.ID > p.ID) {
			e.now = p.time
			return
		}
	}
	e.cal.insert(p)
	if next := e.dispatchRunning(); next != p {
		e.switchFrom(p, next)
	}
}

// blockEvent is Block for the event loop; p is the running CPU.
func (e *Engine) blockEvent(p *P, reason string) {
	if e.poisoned {
		panic(poisonedEngine{})
	}
	if !e.running {
		panic(fmt.Sprintf("sim: Block by CPU %d outside Run", p.ID))
	}
	p.state = Waiting
	p.waitReason = reason
	e.switchFrom(p, e.dispatchRunning())
}

// dispatch removes the next CPU to run from the queue and advances the
// engine clock to it. It panics with the run's verdict when no CPU is
// ready (deadlock), when the clock passes MaxCycles, or when the
// TieBreak hook panics.
func (e *Engine) dispatch() *P {
	next := e.popNext()
	if next == nil {
		panic("sim: deadlock: " + e.describeWaiters())
	}
	e.now = next.time
	if e.MaxCycles != 0 && e.now > e.MaxCycles {
		panic(fmt.Sprintf("sim: exceeded MaxCycles=%d (livelock?)", e.MaxCycles))
	}
	return next
}

// dispatchRunning is dispatch on a running CPU's stack. A verdict poisons
// the engine and unwinds the CPU's body with poisonedEngine, which
// application code re-raises like any foreign panic; Run re-raises the
// verdict itself.
func (e *Engine) dispatchRunning() *P {
	defer func() {
		if r := recover(); r != nil {
			e.poisoned, e.verdict = true, r
			panic(poisonedEngine{})
		}
	}()
	return e.dispatch()
}

// popNext removes and returns the next CPU to run under the documented
// rule — earliest time, lowest id, TieBreak hook among ties — or nil
// when the queue is empty.
func (e *Engine) popNext() *P {
	best := e.cal.peek()
	if best == nil {
		return nil
	}
	if e.TieBreak != nil {
		// Every time-tied entry shares best's bucket; collect their ids in
		// ascending order, matching the legacy scheduler's hook contract.
		e.tied = e.tied[:0]
		d := best.time >> calShift
		for _, q := range e.cal.buckets[d&e.cal.mask] {
			if q.time == best.time {
				e.tied = append(e.tied, q.ID)
			}
		}
		if len(e.tied) > 1 {
			sortIDs(e.tied)
			if pick := e.TieBreak(e.tied); pick >= 0 && pick < len(e.tied) {
				// A tied non-minimum pick leaves the cached minimum queued
				// and still minimal; remove below only invalidates the cache
				// when the minimum itself is taken.
				best = e.procs[e.tied[pick]]
			}
		}
	}
	e.cal.remove(best)
	return best
}

// stopContexts stops every started, non-halted context in CPU-id order.
// A parked context unwinds via poisonedEngine, which stop re-raises and
// stopQuietly discards; a context never resumed exits without running
// its body.
func (e *Engine) stopContexts() {
	e.poisoned = true
	for _, q := range e.procs {
		if q.started && q.state != Halted {
			stopQuietly(q.stop)
			q.state = Halted
		}
	}
}

// stopQuietly calls stop and discards the panic it re-raises from the
// unwound body.
func stopQuietly(stop func()) {
	defer func() { _ = recover() }()
	stop()
}

// sortIDs sorts a small id slice ascending (insertion sort: tied sets
// are tiny and this avoids sort.Ints in the scheduling hot path).
func sortIDs(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
