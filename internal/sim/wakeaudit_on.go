//go:build wakeaudit

package sim

// wakeAuditEveryEdge arms the every-edge wake audit (test instrumentation, in
// the style of mem's pooldebug tag): after each clock edge every sleeping
// component is polled and must still report the future wake its timer is
// armed for, and the dirty-port lists must agree with the port headers; a
// violation panics on the spot, at the edge that caused it.
const wakeAuditEveryEdge = true
