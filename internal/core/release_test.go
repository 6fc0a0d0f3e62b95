package core

import (
	"testing"

	"nvmetro/internal/nvme"
	"nvmetro/internal/sim"
)

// TestReleaseTwicePanics: a request record goes back to its queue exactly
// once; releasing one that is already free is a programmer error.
func TestReleaseTwicePanics(t *testing.T) {
	b := newLookBench(1, 1, false)
	var work sim.Duration
	cmd := nvme.NewRW(nvme.OpRead, 1, 1, 0, 1, 0, 0)
	req := b.w.admit(b.vqs[0], &cmd, &work).h.req
	b.w.completeReq(req, nvme.SCSuccess)
	b.w.put(req)
	defer func() {
		if recover() == nil {
			t.Fatal("a free record was released again without a panic")
		}
	}()
	b.w.release(req)
}
