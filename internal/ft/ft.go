// Package ft implements the application-level fault-tolerance harness of
// §III.F: periodic checkpointing against injected failures, with the
// recovery semantics the paper describes — a failed step costs the work
// since the last checkpoint, the run resumes from saved state, and the
// recovered result is identical to a failure-free run. The
// continue-on-failure direction of Chen & Dongarra [11] (non-failing
// processes keep running while the environment adapts) is modeled by the
// harness's bounded rollback: only the failed interval is recomputed.
package ft

import "math"

// OptimalInterval returns Young's approximation of the checkpoint interval
// (in steps) that minimizes expected lost work: sqrt(2 * C * MTBF), with C
// the checkpoint cost and MTBF the mean steps between failures.
func OptimalInterval(checkpointCostSteps, mtbfSteps float64) int {
	if checkpointCostSteps <= 0 || mtbfSteps <= 0 {
		return 1
	}
	n := int(math.Sqrt(2 * checkpointCostSteps * mtbfSteps))
	if n < 1 {
		n = 1
	}
	return n
}
