package dcl1

import (
	"fmt"
	"io"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/health"
)

// HealthOptions configures the health layer of checked runs: the progress
// watchdog's stall window (in core cycles; the watchdog samples every eighth
// of it) and an optional wall-clock deadline for the whole run.
type HealthOptions = gpu.HealthOptions

// Typed errors returned by the checked run APIs. All but SimError carry a
// structured diagnostic dump, extractable with DumpOf.
type (
	// DeadlockError: no progress probe advanced for a full stall window
	// while some component still had pending work.
	DeadlockError = health.DeadlockError
	// DeadlineError: the wall-clock deadline expired mid-run.
	DeadlineError = health.DeadlineError
	// InvariantError: a completed run failed its final invariant audit.
	InvariantError = health.InvariantError
	// SimError: a panic recovered from inside a run, with design, app, and
	// cycle context.
	SimError = health.SimError
	// HealthDump is the structured diagnostic snapshot carried by health
	// errors: clock positions, probe states, component dumps, violations.
	HealthDump = health.Dump
	// Violation is one broken component invariant inside a HealthDump.
	Violation = health.Violation
)

// DumpOf extracts the diagnostic dump carried by a checked-run error, or nil
// (plain validation errors and SimError carry none).
func DumpOf(err error) *HealthDump { return health.DumpOf(err) }

// WriteHealthDump renders err's diagnostic dump to w as indented text and
// reports whether err carried one.
func WriteHealthDump(w io.Writer, err error) bool {
	d := health.DumpOf(err)
	if d == nil {
		return false
	}
	fmt.Fprint(w, d.Text())
	return true
}
