package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed region the benchmark records around a call into a
// layer of the detector: its name, start and end, the span that caused
// it, and the trace (one per image) it belongs to.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a trace root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the run ends. It is used from
// one goroutine only (the replay runs serially at GOMAXPROCS=1), so it
// takes no locks.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its ID.
func (r *recorder) start(trace string, parent int, name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.origin))})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(r.origin))
	return r.spans[id].dur()
}

// selfTimes returns each span's self time, indexed by span ID.
func (r *recorder) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		out[i] = selfTime(s, children[s.ID])
	}
	return out
}

// dump writes every span as one JSON line, with its self time.
func (r *recorder) dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	self := r.selfTimes()
	for i, s := range r.spans {
		line := struct {
			span
			SelfNs int64 `json:"self_ns"`
		}{s, int64(self[i])}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTime is the parent's duration minus the part of its interval that
// its children cover. Children may overlap (parallel work) and may stick
// out of the parent; only the union of their intervals inside the parent
// is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}
