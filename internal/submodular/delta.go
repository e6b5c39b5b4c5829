package submodular

import "fmt"

// Delta is an opaque, oracle-specific description of one committed batch
// of picks: everything a replica of the committing oracle's lineage needs
// to reach the primary's state without re-deriving it (no
// re-augmentation, no recount). Deltas carry the epoch they advance their
// oracle to, so stale or cross-lineage application is caught instead of
// silently corrupting a replica.
//
// Ownership: a Delta returned by CommitDelta remains valid until the next
// CommitDelta on the same oracle — implementations reuse one buffer per
// oracle to keep the per-round hot path allocation-free. It must never
// alias probe scratch: replicas apply the delta concurrently with the
// primary's probes, and scratch is overwritten by every Gain (the
// shared-mutable-delta aliasing bug the deltashare lint fixtures
// reconstruct).
type Delta interface {
	// DeltaEpoch is the commit epoch the delta advances its oracle to.
	DeltaEpoch() uint64
}

// errWrongDelta reports a delta of a foreign oracle type or lineage.
func errWrongDelta(oracle string, d Delta) error {
	return fmt.Errorf("submodular: %s cannot apply foreign delta %T", oracle, d)
}

// epochCheck implements ApplyDelta's epoch protocol for the deep-copy
// oracles: it reports whether the delta still needs applying (false means
// the replica is the committing oracle itself, or already applied it) and
// errors on anything but the current or next epoch.
func epochCheck(oracle string, have, delta uint64) (apply bool, err error) {
	switch delta {
	case have:
		return false, nil
	case have + 1:
		return true, nil
	default:
		return false, fmt.Errorf("submodular: %s delta for epoch %d applied at epoch %d", oracle, delta, have)
	}
}
