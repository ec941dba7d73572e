// Package pooledbuf is a fixture for the pooledbuf analyzer: pooled
// values escaping their owner, Gets without Puts, and use-after-Put,
// next to the disciplined patterns that must stay clean.
package pooledbuf

import "sync"

type batch struct {
	data []byte
}

var pool = sync.Pool{New: func() any { return new(batch) }}

// getBatch is recognised as a get-wrapper: its Get needs no local Put.
func getBatch() *batch {
	return pool.Get().(*batch)
}

// putBatch is recognised as a put-wrapper.
func putBatch(b *batch) {
	b.data = b.data[:0]
	pool.Put(b)
}

type holder struct {
	stash *batch
	ch    chan *batch
}

// BadFieldEscape parks a pooled value in a struct field.
func BadFieldEscape(h *holder) {
	b := getBatch()
	h.stash = b // want pooledbuf "pooled value stored in struct field"
	putBatch(b)
}

// BadChannelEscape sends a pooled value to another goroutine.
func BadChannelEscape(ch chan *batch) {
	b := getBatch()
	ch <- b // want pooledbuf "pooled value sent on channel"
	putBatch(b)
}

// BadClosureEscape captures a pooled value in a closure that may run
// after the Put.
func BadClosureEscape() func() int {
	b := getBatch()
	f := func() int { return len(b.data) } // want pooledbuf "pooled value captured by closure"
	putBatch(b)
	return f
}

// BadReturnEscape hands the pooled value to a caller with no Put
// obligation.
func BadReturnEscape() *batch {
	b := getBatch()
	b.data = append(b.data, 1)
	putBatch(b)
	return b // want pooledbuf "pooled value escapes via return" pooledbuf "used after Put"
}

// BadCompositeEscape embeds the pooled value in a literal that outlives
// the frame.
func BadCompositeEscape(h *holder) {
	b := getBatch()
	*h = holder{stash: b} // want pooledbuf "pooled value placed in composite literal"
	putBatch(b)
}

// BadNoPut leaks pool throughput: no Put on any path.
func BadNoPut() int {
	b := getBatch() // want pooledbuf "no Put on any path"
	return len(b.data)
}

// BadUseAfterPut touches the value after the pool reclaimed it.
func BadUseAfterPut() int {
	b := getBatch()
	putBatch(b)
	return len(b.data) // want pooledbuf "used after Put"
}

// GoodScoped is the disciplined shape: Get, use, Put, no escape.
func GoodScoped(p []byte) int {
	b := getBatch()
	b.data = append(b.data, p...)
	n := len(b.data)
	putBatch(b)
	return n
}

// AnnotatedHandoff is an audited ownership transfer: both the missing
// local Put and the channel escape carry justifications.
func AnnotatedHandoff(h *holder) {
	b := getBatch() //bgplint:allow(pooledbuf) reason=fixture: ownership transfers to the receiver, which Puts
	//bgplint:allow(pooledbuf) reason=fixture: audited ownership transfer, receiver Puts
	h.ch <- b
}

// BadSharedGetter is the shared-payload buffer getter without its audit
// notes: the Put lives behind a refcounted payload's free callback, so
// the analyzer sees neither a local Put nor a safe return.
func BadSharedGetter() []byte {
	b := pool.Get().(*batch) // want pooledbuf "no Put on any path"
	return b.data[:0]        // want pooledbuf "pooled value escapes via return"
}

// GoodSharedGetter is the audited shared-payload shape: the pooled
// buffer's ownership rides inside a refcounted payload and returns to
// the pool via the free callback when the last reference drains.
func GoodSharedGetter() []byte {
	//bgplint:allow(pooledbuf) reason=fixture: ownership transfers to a refcounted payload; its free callback Puts
	b := pool.Get().(*batch)
	//bgplint:allow(pooledbuf) reason=fixture: audited ownership transfer, the payload free callback Puts
	return b.data[:0]
}

// slab models a refcounted payload arena: a pooled carve buffer whose
// Put hides behind a reference count decremented by payload free
// callbacks, not behind any call the analyzer can pair with the Get.
type slab struct {
	data []byte
	refs int
}

var arenaPool = sync.Pool{New: func() any { return new(slab) }}

type arena struct {
	open *slab
}

// BadSlabRotate parks a pooled slab in the arena with no audit notes:
// the analyzer sees a struct-field escape and no Put on any path.
func BadSlabRotate(a *arena) {
	s := arenaPool.Get().(*slab) // want pooledbuf "no Put on any path"
	s.refs = 1
	a.open = s // want pooledbuf "pooled value stored in struct field"
}

// GoodSlabRotate is the audited refcounted-slab-getter shape: the open
// slab parks in its owner, every payload carved from it holds a counted
// reference, and the last release returns the slab to the pool.
func GoodSlabRotate(a *arena) {
	//bgplint:allow(pooledbuf) reason=fixture: ownership transfers to the arena; carved payloads hold counted references and the last release Puts
	s := arenaPool.Get().(*slab)
	s.refs = 1
	//bgplint:allow(pooledbuf) reason=fixture: audited refcount handoff, the release path Puts when the carved payloads drain
	a.open = s
}
