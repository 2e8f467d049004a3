package sg

// PartCounts returns the last edge phase's counts of the sweep engine e,
// part p's at index p, each divided down to one thread's share unless the
// part has no rows (balance). They are the sweep's scratch, valid until
// the next phase.
func PartCounts(e Engine) []Counts { return e.(sweeper).sweep().counts }
