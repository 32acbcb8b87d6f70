package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A later change that records spans inside the program must
// reuse these so traces stay comparable.
const (
	spanClient = "client.request" // root: one /search as the caller sees it
	spanRouter = "router.handler" // around router.Handler()
	spanServer = "server.handler" // around server.Handler()
	spanEngine = "engine.search"  // around Session.Search on batch-*
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent names the span of the same
// request that caused this one ("" for a root); Req is the request's
// unique identity — the scan number it carries on the wire.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. Recording is gated by
// on, so the same traced run can alternate traced and untraced slices and
// price the tracing itself.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	// Spans are striped by request so that callers and handlers of
	// different requests do not queue on one lock at 20 000 requests/s.
	stripes [16]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since its epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	st := &t.stripes[uint64(s.Req)%uint64(len(t.stripes))]
	st.mu.Lock()
	st.spans = append(st.spans, s)
	st.mu.Unlock()
}

// all returns every recorded span in start order.
func (t *tracer) all() []span {
	var out []span
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		out = append(out, st.spans...)
		st.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// scanField precedes the scan number in every request body the generator
// sends (a single-spectrum SearchRequest with scan as its first field).
var scanField = []byte(`"scan":`)

// scanPeek is how far into a body the scan is looked for; the generator's
// bodies carry it within the first thirty bytes.
const scanPeek = 64

// scanOf extracts the first scan number from the head of a /search body,
// the identity that correlates a request's spans across the router→holder
// hop, where headers are not forwarded. 0 means no scan was found.
func scanOf(body []byte) int64 {
	i := bytes.Index(body, scanField)
	if i < 0 {
		return 0
	}
	j := i + len(scanField)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// wrap interposes on one HTTP layer boundary: while tracing is on, every
// /search through h is recorded as a span called name under parent.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/search" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		// Peek at the head of the body for the scan and hand the handler
		// the same bytes back; a failed peek leaves the error for it.
		br := bufio.NewReaderSize(r.Body, scanPeek)
		head, _ := br.Peek(scanPeek)
		req := scanOf(head)
		r.Body = struct {
			io.Reader
			io.Closer
		}{br, r.Body}
		h.ServeHTTP(w, r)
		t.add(span{Name: name, Start: start, End: t.now(), Parent: parent, Req: req})
	})
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span and overlapping children count once.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		covered += v.hi - v.lo
		end = v.hi
	}
	return s.End - s.Start - covered
}

// traceSummary is what the spans of one run say about each layer, every
// list in milliseconds.
type traceSummary struct {
	clientTransport []float64 // client.request self time
	routerHandler   []float64
	routerSelf      []float64
	holderSkew      []float64 // slowest minus fastest server.handler under one router.handler
	serverHandler   []float64
	serverSelf      []float64
	engineSearch    []float64
}

// summarize groups spans by request and derives durations and self times.
// A request whose root was not recorded (it straddled a tracing toggle)
// contributes its handler durations but no self times.
func summarize(spans []span) traceSummary {
	byReq := make(map[int64][]span)
	var sum traceSummary
	for _, s := range spans {
		if s.Name == spanEngine {
			sum.engineSearch = append(sum.engineSearch, ms(s.End-s.Start))
			continue
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	reqs := make([]int64, 0, len(byReq))
	for r := range byReq {
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, r := range reqs {
		group := byReq[r]
		childrenOf := func(name string) []span {
			var out []span
			for _, c := range group {
				if c.Parent == name {
					out = append(out, c)
				}
			}
			return out
		}
		for _, s := range group {
			kids := childrenOf(s.Name)
			switch s.Name {
			case spanClient:
				if len(kids) > 0 {
					sum.clientTransport = append(sum.clientTransport, ms(selfTime(s, kids)))
				}
			case spanRouter:
				sum.routerHandler = append(sum.routerHandler, ms(s.End-s.Start))
				if len(kids) > 0 {
					sum.routerSelf = append(sum.routerSelf, ms(selfTime(s, kids)))
					lo, hi := kids[0].End-kids[0].Start, kids[0].End-kids[0].Start
					for _, k := range kids[1:] {
						d := k.End - k.Start
						if d < lo {
							lo = d
						}
						if d > hi {
							hi = d
						}
					}
					sum.holderSkew = append(sum.holderSkew, ms(hi-lo))
				}
			case spanServer:
				sum.serverHandler = append(sum.serverHandler, ms(s.End-s.Start))
				sum.serverSelf = append(sum.serverSelf, ms(selfTime(s, kids)))
			}
		}
	}
	return sum
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// writeJSONL writes spans to path, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
