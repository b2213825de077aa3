package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the op index from the client to the traced
// handler, which puts it into the request context so engine spans can
// name the request they served.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

func withRequestID(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestID returns the op index a context carries, or -1.
func requestID(ctx context.Context) int64 {
	if ctx == nil {
		return -1
	}
	if id, ok := ctx.Value(requestIDKey{}).(int64); ok {
		return id
	}
	return -1
}

type spanKind uint8

const (
	kindHandler spanKind = iota + 1
	kindDispatch
	kindItem
)

var spanNames = map[spanKind]string{kindHandler: "handler", kindDispatch: "dispatch", kindItem: "item"}

// span is one recorded interval, in nanoseconds since the buffer's
// epoch. A zero end marks a slot that was reserved but never finished
// (an item skipped by cancellation).
type span struct {
	start, end int64
	req        int64
	parent     int32
	kind       spanKind
}

// spanBuf is the in-memory span store. It is allocated once, before
// the timed phase; a dispatch reserves a contiguous block (its own span
// plus one per item) with one atomic add, and each item writes only its
// own slot, so worker bodies neither append nor contend. When the
// buffer is full, further spans are counted as dropped.
type spanBuf struct {
	epoch   time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{epoch: time.Now(), spans: make([]span, capacity)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// reserve claims n consecutive slots, or returns -1 when they do not
// fit.
func (b *spanBuf) reserve(n int) int {
	end := b.next.Add(int64(n))
	if end > int64(len(b.spans)) {
		b.dropped.Add(int64(n))
		return -1
	}
	return int(end) - n
}

// recorded returns the finished spans in slot order.
func (b *spanBuf) recorded() []span {
	n := min(int(b.next.Load()), len(b.spans))
	return b.spans[:n]
}

// dispatchRec is one traced engine dispatch in flight.
type dispatchRec struct {
	b     *spanBuf
	base  int
	req   int64
	start int64
}

// beginDispatch reserves spans for an n-item dispatch when tracing is
// on.
func (b *spanBuf) beginDispatch(ctx context.Context, n int) (dispatchRec, bool) {
	if !b.on.Load() || n <= 0 {
		return dispatchRec{}, false
	}
	base := b.reserve(n + 1)
	if base < 0 {
		return dispatchRec{}, false
	}
	return dispatchRec{b: b, base: base, req: requestID(ctx), start: b.now()}, true
}

func (d dispatchRec) item(i int, start int64) {
	d.b.spans[d.base+1+i] = span{start: start, end: d.b.now(), req: d.req, parent: int32(d.base), kind: kindItem}
}

func (d dispatchRec) end() {
	d.b.spans[d.base] = span{start: d.start, end: d.b.now(), req: d.req, parent: -1, kind: kindDispatch}
}

// traceHandler wraps the service: it moves the client's request ID
// into the request context and, while tracing is on, records the
// handler span.
func traceHandler(b *spanBuf, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			id = -1
		}
		r = r.WithContext(withRequestID(r.Context(), id))
		if !b.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		slot := b.reserve(1)
		start := b.now()
		next.ServeHTTP(w, r)
		if slot >= 0 {
			b.spans[slot] = span{start: start, end: b.now(), req: id, parent: -1, kind: kindHandler}
		}
	})
}

// window is a half-open interval of the timed phase, in nanoseconds
// since the span epoch.
type window struct{ lo, hi int64 }

func (w window) contains(t int64) bool { return t >= w.lo && t < w.hi }

// traceSummary holds the span-derived samples of the service and
// engine layers.
type traceSummary struct {
	handlerMS      []float64
	selfMS         []float64
	clientOverhead []float64
	dispatches     int
	items          int
	itemMS         []float64
	itemBusyNS     float64
}

// summarizeServe computes handler, self and client-overhead times from
// the handler and dispatch spans within win, matching client ops by
// request ID.
func summarizeServe(spans []span, win window, ops []opResult) traceSummary {
	var s traceSummary
	handlers := map[int64]span{}
	disp := map[int64][]span{}
	for _, sp := range spans {
		if sp.end == 0 || !win.contains(sp.start) {
			continue
		}
		switch sp.kind {
		case kindHandler:
			handlers[sp.req] = sp
		case kindDispatch:
			if sp.req >= 0 {
				disp[sp.req] = append(disp[sp.req], sp)
			}
		}
	}
	ids := make([]int64, 0, len(handlers))
	for id := range handlers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := handlers[id]
		dur := float64(h.end - h.start)
		s.handlerMS = append(s.handlerMS, dur/1e6)
		s.selfMS = append(s.selfMS, (dur-covered(h, disp[id]))/1e6)
	}
	for _, op := range ops {
		h, ok := handlers[int64(op.index)]
		if !ok {
			continue
		}
		s.clientOverhead = append(s.clientOverhead, float64((op.end-op.start)-time.Duration(h.end-h.start))/1e6)
	}
	return s
}

// covered returns how many nanoseconds of h the dispatch spans cover,
// counting overlapping dispatches once.
func covered(h span, ds []span) float64 {
	if len(ds) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ds))
	for _, d := range ds {
		lo, hi := max(d.start, h.start), min(d.end, h.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}

// summarizeEngine counts dispatches and items recorded within the
// windows.
func summarizeEngine(spans []span, wins []window) traceSummary {
	var s traceSummary
	in := func(t int64) bool {
		for _, w := range wins {
			if w.contains(t) {
				return true
			}
		}
		return false
	}
	for _, sp := range spans {
		if sp.end == 0 || !in(sp.start) {
			continue
		}
		switch sp.kind {
		case kindDispatch:
			s.dispatches++
		case kindItem:
			s.items++
			d := float64(sp.end - sp.start)
			s.itemBusyNS += d
			s.itemMS = append(s.itemMS, d/1e6)
		}
	}
	return s
}

// writeTrace writes the spans and the per-layer summary as JSON. Op
// spans (client side, one per op) follow the buffer's spans; a handler
// span's parent is its op.
func writeTrace(path, workload string, seed uint64, b *spanBuf, ops []opResult, opEpoch int64, summary []metricValue) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := b.recorded()
	opID := map[int64]int{}
	for k, op := range ops {
		opID[int64(op.index)] = len(spans) + k
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans_dropped\":%d,\n\"summary\":{", workload, seed, b.dropped.Load())
	for k, m := range summary {
		if k > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n%q:{\"value\":%s,\"unit\":%q}", m.name, formatValue(m.value), m.unit)
	}
	fmt.Fprint(w, "},\n\"spans\":[")
	first := true
	emit := func(id int, name string, start, end, parent, req int64) {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}", id, name, start, end, parent, req)
	}
	for id, sp := range spans {
		if sp.end == 0 {
			continue
		}
		parent := int64(sp.parent)
		if sp.kind == kindHandler {
			if p, ok := opID[sp.req]; ok {
				parent = int64(p)
			}
		}
		emit(id, spanNames[sp.kind], sp.start, sp.end, parent, sp.req)
	}
	for k, op := range ops {
		emit(len(spans)+k, "op", opEpoch+int64(op.start), opEpoch+int64(op.end), -1, int64(op.index))
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
