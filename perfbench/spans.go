package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one run or
// request share Trace; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the log started.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Attr   string `json:"attr,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced mode: every method is a no-op.
type spanLog struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	l      *spanLog
	trace  string
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span; its ID is known at once so children can name it.
func (l *spanLog) begin(trace string, parent int64, name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{l: l, trace: trace, id: l.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span with an optional attribute.
func (s openSpan) end(attr string) {
	if s.l != nil {
		s.l.record(s.trace, s.id, s.parent, s.name, s.start, time.Now(), attr)
	}
}

// add records a span whose interval was measured elsewhere, such as one
// taken from the server's own timestamps, and returns its ID.
func (l *spanLog) add(trace string, parent int64, name string, start, end time.Time, attr string) int64 {
	if l == nil {
		return 0
	}
	id := l.nextID.Add(1)
	l.record(trace, id, parent, name, start, end, attr)
	return id
}

func (l *spanLog) record(trace string, id, parent int64, name string, start, end time.Time, attr string) {
	sp := span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), Dur: int64(end.Sub(start)), Attr: attr,
	}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines, in the order they ended.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, sp := range l.spans {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
