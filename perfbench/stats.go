package main

import (
	"fmt"
	"slices"
	"time"
)

// lat collects latency samples in nanoseconds, split by whether the request
// ran in a traced slice.
type lat struct{ plain, traced []int64 }

func (l *lat) add(d time.Duration, traced bool) {
	if traced {
		l.traced = append(l.traced, d.Nanoseconds())
	} else {
		l.plain = append(l.plain, d.Nanoseconds())
	}
}

func (l *lat) merge(o *lat) {
	l.plain = append(l.plain, o.plain...)
	l.traced = append(l.traced, o.traced...)
}

// quantile returns the nearest-rank q-quantile of samples, in the unit given
// by scale nanoseconds; zero for no samples.
func quantile(samples []int64, q float64, scale float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / scale
}

// medianF is the median of float samples.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// series is what one generator goroutine observed inside the measured
// window.
type series struct {
	ack, query, visible, late lat

	ackedEvents [2]int64 // [untraced, traced]
	// writes and events count every acknowledged write and its events,
	// measured or not.
	writes, events int64
	attempted      int64
	failed         int64
	shed           int64
	lastDone       time.Time
	problems       []string
}

func (s *series) fail(format string, args ...any) {
	s.failed++
	if len(s.problems) < 8 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *series) merge(o *series) {
	s.ack.merge(&o.ack)
	s.query.merge(&o.query)
	s.visible.merge(&o.visible)
	s.late.merge(&o.late)
	s.ackedEvents[0] += o.ackedEvents[0]
	s.ackedEvents[1] += o.ackedEvents[1]
	s.attempted += o.attempted
	s.failed += o.failed
	s.writes += o.writes
	s.events += o.events
	s.shed += o.shed
	if o.lastDone.After(s.lastDone) {
		s.lastDone = o.lastDone
	}
	s.problems = append(s.problems, o.problems...)
}

// done notes a completion time inside the window.
func (s *series) done(t time.Time) {
	if t.After(s.lastDone) {
		s.lastDone = t
	}
}
