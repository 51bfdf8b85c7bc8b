// Package sp is the speclit fixture: constant specs good and bad at
// every checked site. The bad ones are real typos of the repo's own
// spec vocabulary ("mcscr-spt" for "mcscr-stp"), validated against the
// live registries the analyzer links.
package sp

import (
	"repro/fault"
	"repro/lock"
	"repro/policy"
	"repro/shard"
	"repro/store"
)

var (
	goodLock, _  = lock.New("mcs-stp")
	typoLock, _  = lock.New("mcscr-spt?fairness=500") // want `invalid spec constant`
	badParam, _  = lock.New("clh?wait=s")             // want `invalid spec constant`
	mustLock     = lock.MustNew("mcscr-stp?fairness=500")
	badMust      = lock.MustNew("mcscr-stp?fairness=oops") // want `invalid spec constant`
	goodStore, _ = store.New("skiplist?seed=7")
	badStore, _  = store.New("skplist") // want `invalid spec constant`
	goodPol, _   = policy.New("static")
	badPol, _    = policy.New("no-such-policy") // want `invalid spec constant`
	goodFault, _ = fault.New("stall?p=1+surge?threads=4")
	badFault, _  = fault.New("stall?p=1+unknownfault") // want `invalid spec constant`
)

// Composed specs: a named constant or constant concatenation is still a
// compile-time constant, so it is checked too.
const base = "mcscr-stp"

var composed, _ = lock.New(base + "?fairness=nope") // want `invalid spec constant`

var goodCfg = shard.Config{
	Stripes:     4,
	LockSpec:    "tas",
	BackendSpec: "hashmap",
}

var badCfg = shard.Config{
	LockSpec:    "tas?spin=maybe", // want `invalid spec constant`
	BackendSpec: "rbtree?bogus=1", // want `invalid spec constant`
}

// The zero Config means "all defaults" — no findings.
var defaultCfg = shard.Config{}

func reconfigure(m *shard.Map) {
	_ = m.Reconfigure(0, "mcs-stp", "skiplist")
	_ = m.Reconfigure(0, "", "")                // empty = keep current
	_ = m.Reconfigure(0, "mcs-spt", "skiplist") // want `invalid spec constant`
	_ = m.Reconfigure(0, "mcs-stp", "sklist")   // want `invalid spec constant`
}

// Runtime-computed specs are the runtime parser's problem; no findings.
func dynamic(spec string) {
	_, _ = lock.New(spec)
	_, _ = store.New(spec)
}
