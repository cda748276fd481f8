package span

import "sync"

// DefaultRing is the flight-recorder capacity when Config.Ring is
// unset: large enough to hold several solve iterations or a few
// seconds of TM probing, small enough (~a few hundred KB) to keep
// always-on.
const DefaultRing = 4096

// Record is one finished span as stored by the flight recorder and
// rendered by the exporters. It is plain data — safe to copy, sort,
// and marshal.
type Record struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Name     string
	StartNs  int64
	DurNs    int64
	Attrs    []Attr
}

// Recorder is the bounded flight recorder: a fixed-capacity ring of
// the most recent finished spans. Memory is bounded by construction —
// the backing array is allocated once and never grows; old spans are
// overwritten in place. A nil Recorder is the no-op recorder.
type Recorder struct {
	mu      sync.Mutex
	buf     []Record
	next    int    // index the next record lands in
	wrapped bool   // buf has been filled at least once
	total   uint64 // records ever added (wraparound telemetry)
}

// newRecorder builds a ring holding the last `size` spans (size <= 0
// means DefaultRing).
func newRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRing
	}
	return &Recorder{buf: make([]Record, size)}
}

// Cap returns the fixed ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many spans were ever recorded, including those
// already overwritten (0 on nil).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *Recorder) add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Snapshot copies the ring contents oldest-first. The result aliases
// nothing in the ring, so callers may hold it across further writes.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]Record, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
