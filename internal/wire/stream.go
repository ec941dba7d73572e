package wire

import (
	"bufio"
	"io"

	"bgpbench/internal/netaddr"
)

// Reader decodes a stream of framed BGP messages from an io.Reader. It
// buffers internally; do not mix reads on the underlying stream.
type Reader struct {
	br  *bufio.Reader
	hdr [HeaderLen]byte
	as4 bool
	ar  arena // ReadInto's slices
}

// NewReader wraps r for message-at-a-time decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 2*MaxMsgLen)}
}

// SetFourOctetAS switches UPDATE decoding to 4-octet AS_PATH encoding
// (RFC 6793), set once both sides advertise the 4-octet-AS capability.
// Not safe for concurrent use with ReadMessage: the session's reader
// goroutine flips it upon parsing the peer's OPEN.
func (r *Reader) SetFourOctetAS(on bool) { r.as4 = on }

// ReadMessage blocks for one complete BGP message and decodes it. Protocol
// violations are returned as *NotifyError so the caller can answer with the
// corresponding NOTIFICATION; transport failures are returned verbatim.
// Every message is freshly allocated, as ParseBodyMode does.
func (r *Reader) ReadMessage() (Message, error) {
	typ, body, err := r.frame()
	if err != nil {
		return nil, err
	}
	m, err := ParseBodyMode(typ, body, r.as4)
	if _, derr := r.br.Discard(len(body)); derr != nil {
		return nil, derr
	}
	return m, err
}

// ReadInto reads one message like ReadMessage, except that an UPDATE is
// decoded in place into *u (overwriting it) and reported as MsgUpdate
// with a nil Message; any other message is returned as ReadMessage
// returns it. Results and errors equal ParseBodyMode's. The UPDATE's
// slices (Withdrawn, NLRI, AS_PATH segments and their ASNs, communities)
// are cut from chunks the reader never reuses, each capped at its own
// length, so they may be retained, and appending to one never writes
// into another message's data.
func (r *Reader) ReadInto(u *Update) (MsgType, Message, error) {
	typ, body, err := r.frame()
	if err != nil {
		return 0, nil, err
	}
	var m Message
	if typ == MsgUpdate {
		*u = Update{}
		err = decodeUpdate(u, body, r.as4, &r.ar)
	} else {
		m, err = ParseBodyMode(typ, body, r.as4)
	}
	if _, derr := r.br.Discard(len(body)); derr != nil {
		return 0, nil, derr
	}
	return typ, m, err
}

// Buffered reports whether the next read returns without reading the
// underlying stream: a whole message is buffered, or a header that
// fails validation (which is reported without reading its body).
func (r *Reader) Buffered() bool {
	n := r.br.Buffered()
	if n < HeaderLen {
		return false
	}
	h, err := r.br.Peek(HeaderLen)
	if err != nil {
		return false
	}
	length := int(h[16])<<8 | int(h[17])
	return n >= length || length > MaxMsgLen
}

// frame reads one header and peeks at the body that follows; the caller
// discards the body once decoded. The body stays in the bufio buffer, so
// it is valid only until the next read.
func (r *Reader) frame() (MsgType, []byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	length, typ, err := ParseHeader(r.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	body, err := r.br.Peek(length - HeaderLen)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, body, nil
}

// arenaChunk is the element count of one arena chunk.
const arenaChunk = 1024

// arena hands out the slices of decoded UPDATEs, cut from shared chunks.
// A chunk is never reused: when it is full the next one is allocated and
// the old one is left to the garbage collector, which frees it once no
// decoded message refers to it. Every slice is capped at its own length
// (a 3-index slice). A nil *arena allocates each slice on its own
// instead, which is ParseBodyMode's contract.
type arena struct {
	pfx   []netaddr.Prefix
	segs  []ASSegment
	asns  []uint32
	comms []Community
}

// appendRun appends v to run, the slice being decoded: plainly when c is
// nil, else within the chunk *c, whose tail run must be. A run that
// outgrows its chunk moves to a new one.
func appendRun[T any](c *[]T, run []T, v T) []T {
	if c == nil {
		return append(run, v)
	}
	if len(*c) == cap(*c) {
		*c = append(make([]T, 0, max(arenaChunk, 2*len(run))), run...)
	}
	*c = append(*c, v)
	n := len(*c)
	return (*c)[n-len(run)-1 : n : n]
}

// cutRun returns a slice of n elements: freshly made when c is nil, else
// cut from the chunk *c.
func cutRun[T any](c *[]T, n int) []T {
	if c == nil {
		return make([]T, n)
	}
	if cap(*c)-len(*c) < n {
		*c = make([]T, 0, max(arenaChunk, n))
	}
	i := len(*c)
	*c = (*c)[:i+n]
	return (*c)[i : i+n : i+n]
}

// prefixRun returns the empty run the prefixes encoded in nb are decoded
// into by append: nil without an arena (append allocates as it grows),
// else room for exactly that many, cut from the chunk, so no run is
// re-copied as it grows. A malformed encoding, which fails the decode,
// may be miscounted.
func (ar *arena) prefixRun(nb []byte) []netaddr.Prefix {
	if ar == nil {
		return nil
	}
	n := 0
	for i := 0; i < len(nb); i += 1 + (int(nb[i])+7)/8 {
		n++
	}
	if n == 0 {
		return nil
	}
	return cutRun(&ar.pfx, n)[:0]
}

func (ar *arena) segments() *[]ASSegment {
	if ar == nil {
		return nil
	}
	return &ar.segs
}

func (ar *arena) uint32s() *[]uint32 {
	if ar == nil {
		return nil
	}
	return &ar.asns
}

func (ar *arena) communities() *[]Community {
	if ar == nil {
		return nil
	}
	return &ar.comms
}

// concatPrefixes returns a followed by b, copying only when both are
// non-empty (a nil arena copies as append does).
func (ar *arena) concatPrefixes(a, b []netaddr.Prefix) []netaddr.Prefix {
	if ar == nil {
		return append(a, b...)
	}
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	run := cutRun(&ar.pfx, len(a)+len(b))
	copy(run[copy(run, a):], b)
	return run
}

// Writer encodes BGP messages onto an io.Writer with internal buffering.
// It reuses one marshal buffer across messages, so the steady-state send
// path allocates nothing per message. Not safe for concurrent use.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // marshal scratch, reused across messages
	as4 bool
}

// NewWriter wraps w for message-at-a-time encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 2*MaxMsgLen)}
}

// SetFourOctetAS switches UPDATE encoding to 4-octet AS_PATH encoding
// (RFC 6793), set once both sides advertise the 4-octet-AS capability.
// Not safe for concurrent use with the write methods.
func (w *Writer) SetFourOctetAS(on bool) { w.as4 = on }

// encode marshals m into the writer's reusable scratch buffer.
func (w *Writer) encode(m Message) ([]byte, error) {
	b, err := AppendMessageMode(w.buf[:0], m, w.as4)
	if err != nil {
		return nil, err
	}
	w.buf = b
	return b, nil
}

// WriteMessage marshals and writes one message, flushing it to the
// underlying stream.
func (w *Writer) WriteMessage(m Message) error {
	b, err := w.encode(m)
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteMessageBuffered marshals and writes one message without flushing,
// letting callers batch several UPDATEs into one TCP segment. Call Flush
// when the batch is complete.
func (w *Writer) WriteMessageBuffered(m Message) error {
	b, err := w.encode(m)
	if err != nil {
		return err
	}
	_, err = w.bw.Write(b)
	return err
}

// WriteRaw writes pre-marshaled message bytes without flushing. The
// caller guarantees b holds whole, correctly framed BGP messages (the
// update-group fan-out path marshals once per group and replays the same
// bytes to every member). b is fully consumed before WriteRaw returns —
// bufio copies it — so the caller may recycle the buffer immediately.
func (w *Writer) WriteRaw(b []byte) error {
	_, err := w.bw.Write(b)
	return err
}

// Flush pushes buffered messages to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
