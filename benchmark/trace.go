//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around its own calls into that layer (spans inside the
// program under test are a later change). Spans of one request share
// Req; Parent is the index, within the same buffer, of the span that
// caused this one (-1 for a root). N is how many calls the interval
// covers: calls shorter than a microsecond are batched so that the two
// clock reads stay under a hundredth of the span.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// spanCap bounds one buffer: tracing must not turn a throughput run
// into an allocation benchmark. Spans beyond it are counted, not kept.
const spanCap = 1 << 15

// spanBuf is a single-goroutine span buffer, kept in memory until the
// benchmark ends.
type spanBuf struct {
	spans   []span
	dropped int
}

// add records a span and returns its index for use as a Parent.
func (b *spanBuf) add(s span) int {
	if len(b.spans) >= spanCap {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, s)
	return len(b.spans) - 1
}

// traceEpoch is the zero of every span's clock.
var traceEpoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(traceEpoch)) }

// writeTrace writes the buffers as JSON lines, one span per line, with
// a header line first. Parent indices are rebased to file line order.
func writeTrace(path, workload string, bufs []*spanBuf) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	total, dropped := 0, 0
	for _, b := range bufs {
		total += len(b.spans)
		dropped += b.dropped
	}
	hdr := map[string]any{"workload": workload, "spans": total, "dropped": dropped}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace header: %w", err)
	}
	base := 0
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("trace span: %w", err)
			}
		}
		base += len(b.spans)
	}
	return bw.Flush()
}
