package must

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrOverloaded is returned by Insert/InsertObject/Delete when write
// admission control sheds the request: either the in-flight write
// budget is exhausted or the engine's maintenance debt (overlay or
// tombstone ratio) is past the shedding watermark. Callers should back
// off and retry; serving layers map it to 429 + Retry-After. Reads are
// never shed — only the write path carries this error.
var ErrOverloaded = errors.New("must: overloaded, write shed by admission control")

// AdmissionOptions bounds the write path; see SetAdmission. The zero
// value disables both gates.
type AdmissionOptions struct {
	// MaxPendingWrites caps concurrently admitted writes (in flight or
	// queued on the engine lock). Writes past the cap fail fast with
	// ErrOverloaded instead of piling onto the lock. 0 = unlimited.
	MaxPendingWrites int
	// DebtWatermark sheds all writes while the engine's maintenance
	// debt — max(overlay ratio, tombstone ratio) — is at or past this
	// value, giving the background maintenance loop room to catch up.
	// Set it above the maintenance rebuild watermarks so shedding only
	// starts when maintenance is demonstrably behind. 0 = disabled.
	DebtWatermark float64
}

func (o AdmissionOptions) validate() error {
	if o.MaxPendingWrites < 0 {
		return fmt.Errorf("must: negative MaxPendingWrites %d", o.MaxPendingWrites)
	}
	if o.DebtWatermark < 0 || math.IsNaN(o.DebtWatermark) {
		return fmt.Errorf("must: invalid DebtWatermark %v", o.DebtWatermark)
	}
	return nil
}

// admission is the Engine's write gate. All state is atomic: the gate
// sits in front of the engine locks precisely so shed writes never
// touch them.
type admission struct {
	opts    atomic.Pointer[AdmissionOptions]
	pending atomic.Int64  // writes admitted and not yet completed
	shed    atomic.Uint64 // writes refused with ErrOverloaded
}

// configure installs new options; nil-safe validation done by callers'
// SetAdmission wrappers.
func (a *admission) configure(o AdmissionOptions) error {
	if err := o.validate(); err != nil {
		return err
	}
	a.opts.Store(&o)
	return nil
}

// admit gates one write against the given debt reading. On success it
// returns a release func the caller must run when the write completes
// (success or failure); on refusal it returns ErrOverloaded.
func (a *admission) admit(debt float64) (func(), error) {
	o := a.opts.Load()
	if o == nil {
		return func() {}, nil
	}
	if o.DebtWatermark > 0 && debt >= o.DebtWatermark {
		a.shed.Add(1)
		return nil, fmt.Errorf("%w (maintenance debt %.2f ≥ watermark %.2f)", ErrOverloaded, debt, o.DebtWatermark)
	}
	if o.MaxPendingWrites > 0 {
		if a.pending.Add(1) > int64(o.MaxPendingWrites) {
			a.pending.Add(-1)
			a.shed.Add(1)
			return nil, fmt.Errorf("%w (%d writes already in flight)", ErrOverloaded, o.MaxPendingWrites)
		}
		return func() { a.pending.Add(-1) }, nil
	}
	return func() {}, nil
}

// writesShed returns how many writes admission control refused.
func (a *admission) writesShed() uint64 { return a.shed.Load() }
