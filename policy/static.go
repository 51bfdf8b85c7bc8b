package policy

import "repro/shard"

func init() {
	Register(Registration{
		Name:    "static",
		Aliases: []string{"none", "noop"},
		Summary: "never reconfigures; the baseline every adaptive policy is measured against",
		Build:   func(opts ...Option) Policy { return staticPolicy{} },
	})
}

// staticPolicy is the do-nothing policy: whatever specs the map was
// built with stay. It exists so an adaptive run and a frozen run differ
// by exactly one flag — the controller machinery (snapshot cadence,
// Decide calls) is priced identically in both.
type staticPolicy struct{}

func (staticPolicy) Decide(prev, cur shard.StripeSnapshot) (backendSpec string, swap bool) {
	return "", false
}
