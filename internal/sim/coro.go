//go:build go1.23

// The go1.23 constraint sets this file's language version, which lets
// it use iter.Pull while the module's go line stays at 1.22: the
// perfbench module pins go 1.22 and Go refuses to build it against a
// dependency that declares a newer one. Building the package therefore
// needs a go1.23 or newer toolchain.

package sim

import (
	"fmt"
	"iter"
)

// startRank makes rank ps a coroutine: ps.next runs it until its next
// blocking operation parks it, or until it finishes or fails.
func (e *Engine) startRank(ps *procState) {
	p := &Proc{eng: e, st: ps}
	ps.next, ps.stop = iter.Pull(func(yield func(struct{}) bool) {
		ps.yield = yield
		rankMain(p, e.cfg.Body)
	})
}

// rankMain is the coroutine body of one rank. Completion and panics
// mutate engine state directly — safe because the rank is the single
// running coroutine — and returning hands control back to the
// scheduler.
func rankMain(p *Proc, body func(*Proc)) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if r == errAborted {
				return // engine is shutting down
			}
			p.st.status = stDone
			e.err = fmt.Errorf("rank %d panicked: %v", p.st.rank, r)
		}
	}()
	body(p)
	p.st.status = stDone
	e.doneCount++
}
