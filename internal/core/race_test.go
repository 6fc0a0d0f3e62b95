package core_test

import (
	"fmt"
	"strings"
	"testing"

	"nvmetro/internal/device"
	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
	"nvmetro/internal/vm"
)

// hopInFlight is how long a QD1 512 B read's fast-path hop is in flight on
// the jitter-free 970 EVO Plus model: from its HSQ push to its HCQ entry.
const hopInFlight = 81155 * sim.Nanosecond

// TestDeadlineCompletionRace sweeps a QD1 read's FastPathDeadline across the
// hop's in-flight time, ±1 µs in 50 ns steps, and pins what the guest sees
// for each: the status and the instant its completion arrives. A deadline
// aborts the hop only at a gather that runs before the completion is in the
// HCQ; a completion already there when the gather that acts on the deadline
// runs wins, even if it landed after the deadline instant (the rows from
// 81005 to 81105 ns: the hop leaves at 1350 ns, so those deadlines fall
// before its HCQ entry at 82505 ns). The table was recorded when every gather
// swept the deadlines itself.
func TestDeadlineCompletionRace(t *testing.T) {
	want := []string{
		"80155 abort 85500",
		"80205 abort 85500",
		"80255 abort 85750",
		"80305 abort 85750",
		"80355 abort 85750",
		"80405 abort 85750",
		"80455 abort 85750",
		"80505 abort 86000",
		"80555 abort 86000",
		"80605 abort 86000",
		"80655 abort 86000",
		"80705 abort 86000",
		"80755 abort 86250",
		"80805 abort 86250",
		"80855 abort 86250",
		"80905 abort 86250",
		"80955 abort 86250",
		"81005 ok 86500",
		"81055 ok 86500",
		"81105 ok 86500",
		"81155 ok 86500",
		"81205 ok 86500",
		"81255 ok 86500",
		"81305 ok 86500",
		"81355 ok 86500",
		"81405 ok 86500",
		"81455 ok 86500",
		"81505 ok 86500",
		"81555 ok 86500",
		"81605 ok 86500",
		"81655 ok 86500",
		"81705 ok 86500",
		"81755 ok 86500",
		"81805 ok 86500",
		"81855 ok 86500",
		"81905 ok 86500",
		"81955 ok 86500",
		"82005 ok 86500",
		"82055 ok 86500",
		"82105 ok 86500",
		"82155 ok 86500",
	}
	var got []string
	for dl := hopInFlight - sim.Microsecond; dl <= hopInFlight+sim.Microsecond; dl += 50 * sim.Nanosecond {
		r := newRig(1)
		r.router.FastPathDeadline = dl
		v, _, disk := r.addVM(1, device.WholeNamespace(r.dev, 1))
		var st nvme.Status
		var seen sim.Time
		r.run(t, func(p *sim.Proc) {
			st = doIO(p, v, disk, vm.OpRead, 0, make([]byte, 512))
			seen = p.Now()
		})
		verdict := "ok"
		if st == nvme.SCAbortRequested {
			verdict = "abort"
		} else if !st.OK() {
			verdict = st.String()
		}
		got = append(got, fmt.Sprintf("%d %s %d", dl, verdict, seen))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("deadline sweep moved:\n%s", strings.Join(got, "\n"))
	}
}
