package sim

import (
	"pas2p/internal/network"
	"pas2p/internal/vtime"
)

// errAborted is the panic value used to unwind rank coroutines when
// the engine aborts a run.
var errAborted = &struct{ s string }{"sim: run aborted"}

// Proc is a rank's handle onto the simulation. All methods must be
// called from the rank's own coroutine (the Body function); they block
// in virtual time as the corresponding MPI operations would.
type Proc struct {
	eng *Engine
	st  *procState
}

// Rank returns this process's rank id.
func (p *Proc) Rank() int { return p.st.rank }

// Size returns the number of ranks in the run.
func (p *Proc) Size() int { return p.eng.n }

// Now returns the rank's current virtual clock.
func (p *Proc) Now() vtime.Time { return p.st.clock }

// call applies one operation directly on the rank's own coroutine —
// legal because exactly one coroutine runs at a time, so the rank has
// exclusive access to the engine while scheduled. Only when the
// operation blocks does the rank yield to the scheduler; it resumes
// with the result already in its pending slot. A false yield means the
// run was aborted while the rank was parked.
func (p *Proc) call(req *request) {
	if p.eng.handle(p.st, req) && !p.st.yield(struct{}{}) {
		panic(errAborted)
	}
}

// Advance consumes virtual compute time (already converted by the
// caller via the deployment's ComputeTime, or a raw duration for
// overheads). The rank's mode may scale or nullify it.
func (p *Proc) Advance(d vtime.Duration) {
	if d <= 0 {
		return
	}
	p.call(&request{kind: opAdvance, dur: d})
}

// SetMode changes how this rank's subsequent operations are costed.
func (p *Proc) SetMode(m Mode) {
	p.call(&request{kind: opSetMode, mode: m})
}

// Mode returns the rank's current costing mode.
func (p *Proc) Mode() Mode { return p.st.mode }

// Send transmits size bytes (with an optional payload of real data) to
// dst and blocks until the send completes locally (eager) or the
// transfer finishes (rendezvous). It reports the operation's timing.
func (p *Proc) Send(dst, tag, size int, payload any) PtPInfo {
	p.call(&request{kind: opSend, peer: dst, tag: tag, size: size, payload: payload})
	return p.st.pending.ptp
}

// Recv blocks until a matching message (src/tag may be AnySource /
// AnyTag) is delivered, returning its metadata and payload.
func (p *Proc) Recv(src, tag int) PtPInfo {
	p.call(&request{kind: opRecv, peer: src, tag: tag})
	return p.st.pending.ptp
}

// Isend starts a send and returns a request id to pass to Wait.
func (p *Proc) Isend(dst, tag, size int, payload any) int {
	p.call(&request{kind: opIsend, peer: dst, tag: tag, size: size, payload: payload})
	return p.st.pending.reqID
}

// Irecv posts a receive and returns a request id to pass to Wait.
func (p *Proc) Irecv(src, tag int) int {
	p.call(&request{kind: opIrecv, peer: src, tag: tag})
	return p.st.pending.reqID
}

// Wait blocks until all given requests complete and returns their
// timings in argument order.
func (p *Proc) Wait(ids ...int) []PtPInfo {
	if len(ids) == 0 {
		return nil
	}
	p.call(&request{kind: opWait, waitIDs: ids})
	res := &p.st.pending
	if res.ptps == nil {
		// Singleton waits travel in res.ptp so the engine's hot path
		// never allocates; materialise the slice client-side.
		return []PtPInfo{res.ptp}
	}
	return res.ptps
}

// TimelineOn reports whether this run records a timeline, so callers
// can skip building annotation strings that would be dropped.
func (p *Proc) TimelineOn() bool { return p.eng.tl != nil }

// Annotate emits an instant event on this rank's timeline track at the
// current virtual time; a no-op when no timeline is recording. Safe to
// call from the rank's own coroutine: the timeline is internally
// locked and only one coroutine runs at a time anyway.
func (p *Proc) Annotate(name string) {
	p.eng.instant(p.st.rank, name, p.st.clock)
}

// Collective executes one synchronising collective operation over the
// given members (which must include the caller). ctx distinguishes
// communicators; every member must call collectives on a ctx in the
// same order. The returned CollInfo carries all members' payload
// contributions so the caller can apply the operation's data
// semantics.
func (p *Proc) Collective(op network.CollectiveOp, ctx int, members []int, root, size int, payload any) CollInfo {
	p.call(&request{
		kind: opCollective, collOp: op, collCtx: ctx,
		collMembers: members, collRoot: root, size: size, payload: payload,
	})
	return p.st.pending.coll
}
