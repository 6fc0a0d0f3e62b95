package core

import (
	"cmp"
	"maps"
	"slices"

	"nvmetro/internal/nvme"
)

// ReconcileAction is the per-command verdict of a supervision reconcile
// sweep over the in-flight notify hops of a failed UIF.
type ReconcileAction int

// Reconcile actions.
const (
	// ReconcileComplete finishes the hop with the decision's status: the
	// storage function declared the command's effect already durable (the
	// other mirror leg carries the data) or wants the guest to retry (a
	// retryable status, chosen when no safe fallback exists).
	ReconcileComplete ReconcileAction = iota
	// ReconcileRequeue re-dispatches the already-mediated command on the
	// fast path and retires the notify hop. Only safe for functions whose
	// commands are idempotent and semantically equivalent on the fast
	// path (a write-through cache, a read-side accelerator) — never for
	// functions that transform data (encryption).
	ReconcileRequeue
)

// ReconcileDecision is one reconcile verdict.
type ReconcileDecision struct {
	Action ReconcileAction
	Status nvme.Status // ReconcileComplete's completion status
}

// ReconcileNotify sweeps every in-flight notify-path hop through decide
// and retires it: the recovery step after the attached UIF crashed or
// wedged, when the commands it was servicing would otherwise be stranded
// forever. The sweep runs as a routing effect on the controller's worker
// (completions and retries flush in the same round); decide is called
// once per hop in dispatch order, and done (optional) receives the number
// of hops reconciled. Safe from any simulation context.
//
// Hops of requests that already completed to the guest are retired
// without consulting decide — there is nothing left to decide. Hook-
// disposition hops are completed (never requeued): replaying a
// classifier continuation out of context could re-trigger routing.
func (vc *Controller) ReconcileNotify(decide func(cmd nvme.Command) ReconcileDecision, done func(n int)) {
	vc.w.post(func() {
		// Dispatch order, tag-broken: map iteration must not leak
		// nondeterminism into completion order.
		tags := slices.Sorted(maps.Keys(vc.ntags))
		slices.SortStableFunc(tags, func(a, b uint16) int { return cmp.Compare(vc.ntags[a].at, vc.ntags[b].at) })
		w := vc.w
		for _, tag := range tags {
			h := vc.ntags[tag].h
			delete(vc.ntags, tag)
			req := h.req
			if req.completed {
				w.r.NotifyReconciled++
				w.finishHop(h, targetNQ, nvme.SCSuccess)
				continue
			}
			d := decide(req.cmd)
			if d.Action == ReconcileRequeue && h.disp != dispHook {
				w.r.NotifyRequeued++
				req.pending++
				req.waiters++
				w.dispatch(hop{req, dispComplete}, targetHQ)
				w.finishHop(h, targetNQ, nvme.SCSuccess)
				continue
			}
			w.r.NotifyReconciled++
			w.finishHop(h, targetNQ, d.Status)
		}
		if done != nil {
			done(len(tags))
		}
	})
}
