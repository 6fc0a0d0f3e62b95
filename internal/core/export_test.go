package core

import "fmt"

// CheckRecords audits vc's in-flight books at an instant when no worker
// effect is running: per queue, every request record ever made is either
// free or live and sits on its side of the live/free split at its own slot,
// the live ones add up to vc.Outstanding(), and every host tag is exactly one
// of free, in flight or quarantined. It returns the first inconsistency.
func CheckRecords(vc *Controller) error {
	live := 0
	for _, vq := range vc.vqs {
		free, nlive := 0, 0
		for i, req := range vq.reqs {
			switch {
			case req.slot != i:
				return fmt.Errorf("q%d: record at %d says slot %d", vq.qid, i, req.slot)
			case req.live != (i < vq.nlive):
				return fmt.Errorf("q%d: record %d live=%v on the wrong side of %d", vq.qid, i, req.live, vq.nlive)
			case req.live:
				nlive++
			default:
				free++
			}
		}
		if free+nlive != len(vq.reqs) || nlive != vq.nlive {
			return fmt.Errorf("q%d: %d free + %d live records, %d made, %d counted live", vq.qid, free, nlive, len(vq.reqs), vq.nlive)
		}
		live += nlive
		inFlight, quarantined := 0, 0
		for _, t := range vq.htags {
			if t.req != nil && t.lost != 0 {
				return fmt.Errorf("q%d: a host tag both in flight and quarantined", vq.qid)
			}
			if t.req != nil {
				inFlight++
				if !t.req.live {
					return fmt.Errorf("q%d: a host tag carries a free record", vq.qid)
				}
			}
			if t.lost != 0 {
				quarantined++
			}
		}
		if n := len(vq.freeHTags) + inFlight + quarantined; n != len(vq.htags) {
			return fmt.Errorf("q%d: %d free + %d in-flight + %d quarantined host tags, depth %d",
				vq.qid, len(vq.freeHTags), inFlight, quarantined, len(vq.htags))
		}
	}
	if live != vc.outstanding {
		return fmt.Errorf("%d live records, %d commands outstanding", live, vc.outstanding)
	}
	return nil
}

// Records returns how many request records vc's queues have made.
func Records(vc *Controller) (n int) {
	for _, vq := range vc.vqs {
		n += len(vq.reqs)
	}
	return n
}

// MaxClassifications is the bound on one request's classifier invocations.
const MaxClassifications = maxClassifications
