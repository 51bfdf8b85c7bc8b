// Package sp is the speclit fixture: constant specs good and bad at
// every checked site. The bad ones are real typos of the repo's own
// spec vocabulary ("mcscr-spt" for "mcscr-stp"), validated against the
// live registries the analyzer links.
package sp

import (
	"repro/fault"
	"repro/lock"
	"repro/shard"
	"repro/store"
)

var (
	goodLock, _  = lock.New("mcs-stp")
	typoLock, _  = lock.New("mcscr-spt?fairness=500") // want `invalid spec constant`
	badParam, _  = lock.New("lifocr?wait=s")          // want `invalid spec constant`
	mustLock     = lock.MustNew("mcscr-stp?fairness=500")
	badMust      = lock.MustNew("mcscr-stp?fairness=oops") // want `invalid spec constant`
	crLock, _    = lock.New("mcscr-stp?cr=true")
	badCR, _     = lock.New("mcs-stp?cr=2") // want `invalid spec constant`
	goodStore, _ = store.New("skiplist?seed=7")
	badStore, _  = store.New("skplist") // want `invalid spec constant`
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

// Runtime-computed specs are the runtime parser's problem; no findings.
func dynamic(spec string) {
	_, _ = lock.New(spec)
	_, _ = store.New(spec)
}
