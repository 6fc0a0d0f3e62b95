// Package dm is the device-mapper layer: stackable block-device targets in
// the style of Linux DM. It provides dm-crypt (XTS-AES encryption with a
// kcryptd-style worker pool) and dm-mirror (synchronous two-leg
// replication), the kernel building blocks behind the paper's
// dm-crypt+vhost-scsi and dm-mirror+vhost-scsi baselines.
package dm

import "nvmetro/internal/blockdev"

// bio is re-exported for brevity in this package.
type bio = blockdev.Bio
