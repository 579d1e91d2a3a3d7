package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// schedule is an open-loop send plan: op i is due at start + i*interval,
// whatever happened to the ops before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// interval is the spacing at which p's chunks offer rowsPerSec.
func (p *pool) interval(rowsPerSec int) time.Duration {
	return time.Duration(int64(time.Second) * int64(p.chunkRows) / int64(rowsPerSec))
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// pacedRun is the record of one open-loop ingest phase.
//
// An op can go out once it is due and the connection is free. What it
// waits beyond its due time for the connection is the server's doing and is
// part of its latency; what the generator's own timer then adds (time.Sleep
// overshoots by 0.3-1.2 ms on this box once the process has sockets open:
// the runtime's netpoller waits in whole milliseconds) is the
// generator's error, kept out of the latency and reported as late.
type pacedRun struct {
	lat     []time.Duration // per op: wait for the connection past the due time, plus request time
	service []time.Duration // per op: request time alone
	late    []time.Duration // per op: how long after it could have gone out it was sent
	sentAt  []time.Time     // per op: when the request went out
	sent    []int           // pool index of each op, in send order
	failed  int
	wall    time.Duration // first due time to last response
	// offered is the schedule's length; offered/wall below 1 means the run
	// could not hold the rate.
	offered  time.Duration
	interval time.Duration
}

// runPaced sends n chunk bodies from the pool, starting at pool index
// first and cycling, on one connection at the schedule's rate. Latency is
// timed from each op's due time, so a server stall charges every op it
// delays. It stops early when ctx is cancelled.
func runPaced(ctx context.Context, srv *server, c *http.Client, p *pool, first, n, rowsPerSec int) pacedRun {
	interval := p.interval(rowsPerSec)
	r := pacedRun{
		lat:      make([]time.Duration, 0, n),
		service:  make([]time.Duration, 0, n),
		late:     make([]time.Duration, 0, n),
		sentAt:   make([]time.Time, 0, n),
		sent:     make([]int, 0, n),
		interval: interval,
	}
	sch := schedule{start: time.Now().Add(time.Millisecond), interval: interval}
	free := sch.start // when the connection last became free
	for i := 0; i < n && ctx.Err() == nil; i++ {
		ready := sch.due(i) // when op i could go out
		if free.After(ready) {
			ready = free
		}
		time.Sleep(time.Until(ready))
		idx := (first + i) % len(p.bodies)
		sentAt := time.Now()
		err := srv.ingest(c, p.bodies[idx])
		free = time.Now()
		lat := ready.Sub(sch.due(i)) + free.Sub(sentAt)
		r.late = append(r.late, sentAt.Sub(ready))
		r.sentAt = append(r.sentAt, sentAt)
		r.service = append(r.service, free.Sub(sentAt))
		r.lat = append(r.lat, lat)
		r.sent = append(r.sent, idx)
		if err != nil || lat > opDeadline {
			r.failed++
		}
		r.wall = free.Sub(sch.start)
	}
	r.offered = time.Duration(len(r.sent)) * interval // a cancelled run offered less than n
	return r
}

// spans records the run's ops into tr, numbered from firstOp: one span per
// op from the moment it could go out to its response, the request its child.
func (r pacedRun) spans(tr *tracer, firstOp int) {
	for i, sent := range r.sentAt {
		done := sent.Add(r.service[i])
		op := tr.record("ingest", 0, firstOp+i, sent.Add(-r.late[i]), done)
		tr.record("POST /v1/ingest", op, firstOp+i, sent, done)
	}
}

// checkPacing enforces the noise discipline: a run whose generator could
// not keep its schedule measured something else than the stated load, so
// it is an error, not a data point.
func (r pacedRun) checkPacing() error {
	// A timer wake-up costs up to about a millisecond on this box (more
	// after a long sleep); beyond that, or a tenth of the spacing, the
	// generator is starved.
	if p50 := percentile(r.late, 50); p50 > max(time.Millisecond, r.interval/10) {
		return fmt.Errorf("paced generator ran late: median send %.3f ms after the op could have gone out", ms(p50))
	}
	if ratio := r.offered.Seconds() / r.wall.Seconds(); ratio < 0.99 {
		return fmt.Errorf("offered rate not held: achieved %.1f%% of the schedule", 100*ratio)
	}
	return nil
}
