package fault

import (
	"sync/atomic"

	"repro/internal/spec"
)

func init() {
	Register(Registration{
		Name:    "surge",
		Summary: "thread-count surge (the paper's overthreading collapse): threads=; window after=/for=",
		Build:   buildSurge,
	})
}

// surge reproduces the paper's overthreading scenario: the thread count
// jumps by threads for the activation window. The fault itself only
// *requests* the surplus — the harness (internal/loadgen's surge pool)
// polls ExtraThreads and runs that many extra closed-loop workers while
// the window is open, then drains them. Surplus demand is exactly what a
// Malthusian policy exists to survive: a FIFO lock hands the critical
// section to descheduled threads and collapses; a culling lock
// passivates the surplus and keeps the active set near the hardware.
type surge struct {
	window
	threads int

	fired atomic.Bool // ever observed active by the harness
}

//lockcheck:cs
func (f *surge) InCS(int) {}

func (f *surge) Key(key uint64) uint64 { return key }

func (f *surge) ExtraThreads() int {
	if !f.active() {
		return 0
	}
	f.fired.Store(true)
	return f.threads
}

func (f *surge) stats(s *Stats) {
	if f.fired.Load() && f.threads > s.SurgePeak {
		s.SurgePeak = f.threads
	}
}

type surgeOpt func(*surge)

var surgeGrammar = spec.NewGrammar[surgeOpt]("fault", map[string]spec.ParamFunc[surgeOpt]{
	"threads": func(v string) (surgeOpt, error) {
		n, err := spec.PosInt(v)
		if err != nil {
			return nil, err
		}
		return func(f *surge) { f.threads = n }, nil
	},
	"after": func(v string) (surgeOpt, error) {
		d, err := spec.Dur(v)
		if err != nil {
			return nil, err
		}
		return func(f *surge) { f.after = d }, nil
	},
	"for": func(v string) (surgeOpt, error) {
		d, err := spec.Dur(v)
		if err != nil {
			return nil, err
		}
		return func(f *surge) { f.dur = d }, nil
	},
})

func buildSurge(fullSpec, query string) (Fault, error) {
	f := &surge{threads: DefaultSurgeThreads}
	opts, err := surgeGrammar.Parse(fullSpec, query)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}
