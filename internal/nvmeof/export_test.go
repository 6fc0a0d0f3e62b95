package nvmeof

// DeadlineLen is the length of the initiator's deadline queue, for tests.
func (i *Initiator) DeadlineLen() int { return i.deadlines.Len() }

// Recovery returns the active command-recovery policy.
func (i *Initiator) Recovery() InitiatorRecovery { return i.rec }

// Link directions, and the link's constructor and transfer, for the
// external tests.
const (
	DirToTarget = dirToTarget
	DirToHost   = dirToHost
)

var NewLink = newLink

func (l *Link) Send(dir int, size int, fn func()) { l.send(dir, size, fn) }
