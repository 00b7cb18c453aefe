package peer

// Hello ack statuses.
const (
	AckOK              = 0 // admitted; the connection is registered
	AckWrongGeneration = 1 // generation mismatch; the ack names the acceptor's
	AckDuplicateRank   = 2 // same generation, but the rank's slot is already held
)

// Admission is the acceptor's verdict on one hello.
type Admission uint8

const (
	Admitted  Admission = iota // ack OK and register the connection
	Stale                      // older generation: refuse, keep the slot free
	Newer                      // newer generation: refuse, then fail bring-up as the stale incarnation
	Duplicate                  // the slot is held: refuse the newcomer
	Invalid                    // not a rank that dials this one: drop unanswered, fail bring-up
)

// Admit judges a hello claiming rank from at generation gen, received by
// rank self at generation ours; taken says from's slot is already held.
// Generations come first, so a stale dialer is fenced whatever it claims.
func Admit(from int, gen uint32, self int, ours uint32, taken bool) Admission {
	switch {
	case gen < ours:
		return Stale
	case gen > ours:
		return Newer
	case taken:
		return Duplicate
	case from < 0 || from >= self:
		return Invalid
	}
	return Admitted
}

// Ack is the status that answers a hello with this verdict; an Invalid
// hello goes unanswered.
func (a Admission) Ack() uint32 {
	return [...]uint32{AckOK, AckWrongGeneration, AckWrongGeneration, AckDuplicateRank, AckDuplicateRank}[a]
}

// Verdict is the dialer's reading of a hello ack.
type Verdict uint8

const (
	Connected Verdict = iota // registered by the acceptor
	Retry                    // the acceptor is stale and about to be respawned: retry within the budget
	Fenced                   // the acceptor is newer: this process is stale, retrying cannot succeed
	Taken                    // another process of this generation holds the rank
	Unknown                  // a status this version does not know
)

// Answer reads an ack of status naming the acceptor's generation theirs,
// for a dialer at generation ours.
func Answer(status, theirs, ours uint32) Verdict {
	switch {
	case status == AckOK:
		return Connected
	case status == AckWrongGeneration && theirs > ours:
		return Fenced
	case status == AckWrongGeneration:
		return Retry
	case status == AckDuplicateRank:
		return Taken
	}
	return Unknown
}
