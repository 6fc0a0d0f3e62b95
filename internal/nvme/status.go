package nvme

import "fmt"

// Status is the 15-bit NVMe completion status: status code type in bits
// [10:8] (of the 15-bit field, i.e. SCT) and status code in bits [7:0].
type Status uint16

// Status code types.
const (
	SCTGeneric  Status = 0x0 << 8
	SCTSpecific Status = 0x1 << 8
	SCTMedia    Status = 0x2 << 8
	SCTPath     Status = 0x3 << 8
	SCTVendor   Status = 0x7 << 8
)

// Generic status codes.
const (
	SCSuccess        Status = 0x00
	SCInvalidOpcode  Status = 0x01
	SCInvalidField   Status = 0x02
	SCIDConflict     Status = 0x03
	SCDataXferError  Status = 0x04
	SCInternal       Status = 0x06
	SCAbortRequested Status = 0x07
	SCInvalidNS      Status = 0x0B
	SCCapExceeded    Status = 0x81
	SCLBAOutOfRange  Status = 0x80
	SCNSNotReady     Status = 0x82
	SCAccessDenied   Status = SCTSpecific | 0x86
)

// Media error status codes.
const (
	SCWriteFault       Status = SCTMedia | 0x80
	SCUnrecoveredRead  Status = SCTMedia | 0x81
	SCGuardCheck       Status = SCTMedia | 0x82
	SCRefTagCheck      Status = SCTMedia | 0x84
	SCCompareFailure   Status = SCTMedia | 0x85
	SCDeallocatedRange Status = SCTMedia | 0x87
)

// Path-related status codes.
const (
	// SCPathError reports an internal path error: the fabric lost the
	// command (or its response) and every retry was exhausted.
	SCPathError Status = SCTPath | 0x00
)

// OK reports whether the status is success.
func (s Status) OK() bool { return s == SCSuccess }

// SCT returns the status code type.
func (s Status) SCT() uint8 { return uint8(s >> 8 & 0x7) }

// SC returns the status code within the type.
func (s Status) SC() uint8 { return uint8(s) }

func (s Status) String() string {
	if s.OK() {
		return "OK"
	}
	switch s {
	case SCInvalidOpcode:
		return "InvalidOpcode"
	case SCInvalidField:
		return "InvalidField"
	case SCInvalidNS:
		return "InvalidNamespace"
	case SCLBAOutOfRange:
		return "LBAOutOfRange"
	case SCInternal:
		return "InternalError"
	case SCWriteFault:
		return "WriteFault"
	case SCUnrecoveredRead:
		return "UnrecoveredReadError"
	case SCGuardCheck:
		return "GuardCheckError"
	case SCRefTagCheck:
		return "RefTagCheckError"
	case SCCompareFailure:
		return "CompareFailure"
	case SCAccessDenied:
		return "AccessDenied"
	case SCPathError:
		return "PathError"
	}
	return fmt.Sprintf("Status(sct=%d,sc=%#02x)", s.SCT(), s.SC())
}

// Error lets a Status be used where an error is expected.
func (s Status) Error() string { return "nvme: " + s.String() }
