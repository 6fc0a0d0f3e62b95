package nvmeof

// DeadlineLen is the length of the initiator's deadline queue, for tests.
func (i *Initiator) DeadlineLen() int { return i.deadlines.Len() }
