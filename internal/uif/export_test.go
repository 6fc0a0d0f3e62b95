package uif

// PoisonReleased switches poison-on-release (see poisonReleased) on or off
// and returns the previous setting.
func PoisonReleased(on bool) (was bool) {
	was, poisonReleased = poisonReleased, on
	return was
}

// Healthy reports whether the attachment's poll loop is alive and serving.
func (att *Attachment) Healthy() bool { return att.state == attHealthy }
