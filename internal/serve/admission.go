package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Admission is the load-shedding front of an HTTP serving layer — the
// same limiter guards a single node's recommend endpoints and a
// scatter-gather router's fan-out: a concurrency
// limiter with a bounded wait queue. Up to maxInflight requests execute
// at once; up to maxQueue more may wait up to queueWait for a slot; and
// everything beyond that is rejected immediately. Saturation therefore
// degrades by shedding — cheap 429/503 responses with Retry-After — not
// by stacking goroutines until the sweep pool and the kernel's accept
// queue both drown at once. Both shed paths are counted
// separately so /v1/stats distinguishes "the queue was full" (arrival
// rate beyond even the buffer) from "a slot never freed in time"
// (service time collapsed).
type Admission struct {
	slots chan struct{} // one token per executing request
	queue chan struct{} // one token per waiting request
	wait  time.Duration

	inflight      atomic.Int64
	queued        atomic.Int64
	shedQueueFull atomic.Int64
	shedWait      atomic.Int64
	queueAborted  atomic.Int64
}

func NewAdmission(maxInflight, maxQueue int, queueWait time.Duration) *Admission {
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		slots: make(chan struct{}, maxInflight),
		queue: make(chan struct{}, maxQueue),
		wait:  queueWait,
	}
}

// Acquire claims an execution slot, waiting in the bounded queue when
// none is free. It returns a non-nil release func on admission; on shed
// it returns nil and the typed error code to answer with:
// api.CodeQueueFull (429) when the wait queue itself is full (the client
// should back off), api.CodeOverloaded (503) when a slot did not free up
// within the queue wait or the caller's context ended first.
// Only genuine slot starvation — the wait timer or a deadline expiring —
// counts toward shed_wait_timeout; a client that hangs up while queued is
// tallied separately (queue_abandoned), so the "service time collapsed"
// signal is not inflated by client churn.
func (a *Admission) Acquire(ctx context.Context) (release func(), code api.Code) {
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), ""
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		a.shedQueueFull.Add(1)
		return nil, api.CodeQueueFull
	}
	a.queued.Add(1)
	defer func() {
		a.queued.Add(-1)
		<-a.queue
	}()
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), ""
	case <-timer.C:
		a.shedWait.Add(1)
		return nil, api.CodeOverloaded
	case <-ctx.Done():
		if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
			// the request's budget expired while queued: the slot really
			// never freed in time
			a.shedWait.Add(1)
		} else {
			a.queueAborted.Add(1)
		}
		return nil, api.CodeOverloaded
	}
}

func (a *Admission) admitted() func() {
	a.inflight.Add(1)
	return func() {
		a.inflight.Add(-1)
		<-a.slots
	}
}

// AdmissionStats is the admission section of /v1/stats (canonically
// api.AdmissionStats; aliased here for the serve-level consumers).
type AdmissionStats = api.AdmissionStats

// Stats reports the limiter's configuration and counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxInflight:   cap(a.slots),
		MaxQueue:      cap(a.queue),
		QueueWaitMS:   a.wait.Milliseconds(),
		Inflight:      a.inflight.Load(),
		Queued:        a.queued.Load(),
		ShedQueueFull: a.shedQueueFull.Load(),
		ShedWait:      a.shedWait.Load(),
		QueueAborted:  a.queueAborted.Load(),
	}
}
