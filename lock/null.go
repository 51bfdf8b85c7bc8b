package lock

import "context"

// Null is the degenerate lock whose acquire and release operators return
// immediately (§6.1). It provides no mutual exclusion and is suitable only
// for calibrating harness overhead; "other more sophisticated applications
// will immediately fail with this lock."
type Null struct{}

// NewNull returns a Null lock.
func NewNull() *Null { return &Null{} }

func init() {
	Register(Registration{
		Name:    "null",
		Summary: "degenerate no-op lock for harness calibration (no mutual exclusion)",
		Build:   func(...Option) Mutex { return NewNull() },
	})
}

// Lock is a no-op.
func (*Null) Lock() {}

// Unlock is a no-op.
//
//lockcheck:cs
func (*Null) Unlock() {}

// TryLock always succeeds.
func (*Null) TryLock() bool { return true }

// LockContext succeeds immediately unless ctx is already done (the
// fail-fast clause of the ContextMutex contract is kept so harness code
// measuring cancellation overhead sees uniform behaviour).
func (*Null) LockContext(ctx context.Context) error { return ctx.Err() }

var _ ContextMutex = (*Null)(nil)
