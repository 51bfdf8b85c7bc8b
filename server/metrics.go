package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/shard"
)

// metricsSample is what the background sampler publishes and the
// /metrics handler renders: one lite snapshot plus its counters' change
// since the previous sample. The handler itself never snapshots — a scrape
// landing during a stripe collapse must read the cache, not queue
// behind the collapsed lock it is trying to observe.
type metricsSample struct {
	snap     shard.Snapshot
	delta    shard.Counters
	interval time.Duration
}

// sampleLoop drives Sample on the configured cadence until drain.
func (s *Server) sampleLoop() {
	defer s.mwg.Done()
	t := time.NewTicker(s.cfg.MetricsInterval)
	defer t.Stop()
	for {
		select {
		case <-s.acceptCtx.Done():
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Sample takes one lite snapshot and publishes it (with its delta
// against the previous sample) for the /metrics handler. Exported as a
// deterministic test hook: tests call it instead of waiting out the
// sampler cadence.
func (s *Server) Sample() {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	snap, err := s.m.SnapshotLite(ctx)
	if err != nil {
		return // keep the previous sample; a collapsed stripe outlasts one tick
	}
	cur := &metricsSample{snap: snap, interval: s.cfg.MetricsInterval}
	if prev := s.metricsCache.Load(); prev != nil {
		cur.delta = snap.Counters.Sub(prev.snap.Counters)
	}
	s.metricsCache.Store(cur)
}

// page collects series by family, so every family renders as one group
// under one # TYPE line whatever order its series arrive in — the text
// exposition format allows a family only one group.
type page struct {
	names []string
	fams  map[string]*strings.Builder
}

// add appends one series. A name ending in _total is a counter, any
// other a gauge; labels is "" or a braced label set.
func (p *page) add(name, labels string, v any) {
	b := p.fams[name]
	if b == nil {
		typ := "gauge"
		if strings.HasSuffix(name, "_total") {
			typ = "counter"
		}
		b = new(strings.Builder)
		fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
		p.fams[name] = b
		p.names = append(p.names, name)
	}
	fmt.Fprintf(b, "%s%s %v\n", name, labels, v)
}

// handleMetrics renders the text exposition format. It reads the
// sampler's cache and the server/fault atomics only; the patient
// snapshot family is off-limits on this path by construction and by
// the analyzer.
//
//lockcheck:nosnapshot
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := page{fams: make(map[string]*strings.Builder)}
	defer func() {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, name := range p.names {
			w.Write([]byte(p.fams[name].String())) //nolint:errcheck
		}
	}()

	// Server-plane counters.
	p.add("shardd_connections_accepted_total", "", s.accepted.Load())
	p.add("shardd_connections_active", "", s.active.Load())
	p.add("shardd_ops_total", "", s.ops.Load())
	p.add("shardd_bad_frames_total", "", s.badFrames.Load())

	// Injector evidence (chaos over the wire).
	s.faultMu.Lock()
	set := s.faultSet
	s.faultMu.Unlock()
	if set != nil {
		st := set.Stats()
		p.add("shardd_fault_armed", "", boolMetric(set.Active()))
		p.add("shardd_fault_stalls_total", "", st.Stalls)
		p.add("shardd_fault_stall_ms_total", "", st.StallTime.Milliseconds())
	}

	sample := s.metricsCache.Load()
	if sample == nil {
		return
	}
	snap, delta := sample.snap, sample.delta

	// Map rollups: every counter of the set (shard.Counters.Each). The
	// optimistic hits are Gets that never touched a stripe lock; read
	// against shardd_lock_acquires_total they certify the zero-lock read
	// claim in production, not just in the bench.
	p.add("shardd_len", "", snap.Len)
	snap.Each(func(name string, class int, v uint64) {
		labels := ""
		if class >= 0 {
			labels = fmt.Sprintf("{class=\"%d\"}", class)
		}
		p.add("shardd_"+name+"_total", labels, v)
	})

	// Interval rates from the cached delta (zero until two samples).
	if sample.interval > 0 {
		p.add("shardd_interval_deadline_attempts", "", delta.DeadlineAttempts)
		p.add("shardd_interval_deadline_misses", "", delta.DeadlineMisses)
		if delta.DeadlineAttempts > 0 {
			p.add("shardd_interval_miss_rate", "",
				fmt.Sprintf("%.6f", float64(delta.DeadlineMisses)/float64(delta.DeadlineAttempts)))
		}
	}

	// Per-stripe detail: the counters an operator greps when one stripe
	// is the problem. Stripes × classes and stripes × optimistic series
	// add up, so a class, and the optimistic trio, is left out of a
	// stripe's lines while every counter in it is zero (a class nobody
	// sent, a locked read path, a stripe the key distribution never
	// reads).
	for _, st := range snap.Stripes {
		stripe := fmt.Sprintf("stripe=\"%d\"", st.Index)
		p.add("shardd_stripe_len", "{"+stripe+"}", st.Len)
		var busy [shard.NumClasses + 1]bool
		st.Each(func(name string, class int, v uint64) {
			if g := quietGroup(name, class); g >= 0 && v != 0 {
				busy[g] = true
			}
		})
		st.Each(func(name string, class int, v uint64) {
			if g := quietGroup(name, class); g >= 0 && !busy[g] {
				return
			}
			labels := "{" + stripe + "}"
			if class >= 0 {
				labels = fmt.Sprintf("{%s,class=\"%d\"}", stripe, class)
			}
			p.add("shardd_stripe_"+name+"_total", labels, v)
		})
		if st.Fairness.RecentLWSS > 0 {
			p.add("shardd_stripe_recent_lwss", "{"+stripe+"}", fmt.Sprintf("%.1f", st.Fairness.RecentLWSS))
		}
	}
}

// quietGroup indexes the group of per-stripe series that (name, class)
// belongs to and that is left off the page while all of it is zero — one
// group per request class, one for the optimistic counters; -1 for a
// series that is always rendered.
func quietGroup(name string, class int) int {
	switch {
	case class >= 0:
		return class
	case strings.HasPrefix(name, "optimistic_"):
		return shard.NumClasses
	}
	return -1
}

func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}
