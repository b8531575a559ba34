//go:build !wakeaudit

package sim

// wakeAuditEveryEdge is false in normal builds: the wake audit runs at
// watchdog samples and final audits only. Build with -tags wakeaudit to run
// it after every clock edge.
const wakeAuditEveryEdge = false
