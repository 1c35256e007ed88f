package main

import (
	"sort"
	"sync"
	"time"
)

// recorder holds the timed calls of one traced operation (a replayed request
// or the build). Every call is a span with a parent; a span's self time is
// its duration minus the part of its interval that its direct children
// cover, so a Label call nested inside EstimateAggregate is billed to the
// labeler and not to the estimator. Children may run concurrently: overlap
// is counted once.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name       string
	parent     int // -1 for a root
	start, end time.Duration
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its handle.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// time runs f as a span named name under parent and returns the span.
func (r *recorder) time(name string, parent int, f func()) int {
	i := r.begin(name, parent)
	f()
	r.end(i)
	return i
}

// duration returns span i's wall time.
func (r *recorder) duration(i int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i].end - r.spans[i].start
}

// selfByName sums the self time of every closed span, by span name.
func (r *recorder) selfByName() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		out[s.name] += s.end - s.start - covered(s.start, s.end, children[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, lo), min(k.end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
