package wire

import (
	"strconv"
	"strings"
)

// ASSegment is one segment of an AS_PATH attribute: either an ordered
// AS_SEQUENCE or an unordered AS_SET (produced by aggregation). ASNs are
// 4-octet (RFC 6793); when a session negotiates only 2-octet AS numbers,
// values above 0xFFFF are substituted with AS_TRANS on the wire and the
// true path travels in the AS4_PATH attribute.
type ASSegment struct {
	Type byte // SegASSet or SegASSequence
	ASNs []uint32
}

// ASPath is the full AS_PATH attribute value: a list of segments.
type ASPath struct {
	Segments []ASSegment
}

// NewASPath builds a single-sequence path from the given ASNs. An empty
// argument list yields an empty path (as originated by the local AS before
// prepending).
func NewASPath(asns ...uint32) ASPath {
	if len(asns) == 0 {
		return ASPath{}
	}
	seg := ASSegment{Type: SegASSequence, ASNs: append([]uint32(nil), asns...)}
	return ASPath{Segments: []ASSegment{seg}}
}

// Length returns the AS-path length used by the decision process: each AS in
// a sequence counts 1, and each AS_SET counts 1 in total (RFC 4271 sec 9.1.2.2).
func (p ASPath) Length() int {
	n := 0
	for _, s := range p.Segments {
		if s.Type == SegASSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// asnCount returns the total number of ASNs across all segments, counting
// every AS_SET member. This is the RFC 6793 section 4.2.3 merge count, not
// the decision-process length.
func (p ASPath) asnCount() int {
	n := 0
	for _, s := range p.Segments {
		n += len(s.ASNs)
	}
	return n
}

// Contains reports whether the path traverses the given AS. It is the loop
// detection predicate from RFC 4271 section 9.1.2.
func (p ASPath) Contains(asn uint32) bool {
	for _, s := range p.Segments {
		for _, a := range s.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// First returns the neighbouring AS (the first AS of the first sequence
// segment) and true, or 0 and false for an empty path.
func (p ASPath) First() (uint32, bool) {
	for _, s := range p.Segments {
		if len(s.ASNs) > 0 {
			return s.ASNs[0], true
		}
	}
	return 0, false
}

// Origin returns the originating AS (the last AS of the path) and true, or
// 0 and false for an empty path.
func (p ASPath) Origin() (uint32, bool) {
	for i := len(p.Segments) - 1; i >= 0; i-- {
		s := p.Segments[i]
		if len(s.ASNs) > 0 {
			return s.ASNs[len(s.ASNs)-1], true
		}
	}
	return 0, false
}

// needsAS4 reports whether any ASN exceeds the 2-octet range, requiring
// AS_TRANS substitution plus an AS4_PATH attribute when encoding for an
// old (2-octet) speaker.
func (p ASPath) needsAS4() bool {
	for _, s := range p.Segments {
		for _, a := range s.ASNs {
			if a > 0xFFFF {
				return true
			}
		}
	}
	return false
}

// Prepend returns a copy of the path with asn prepended to the leading
// AS_SEQUENCE, creating one if the path starts with a set or is empty. The
// receiver is not modified; paths are treated as immutable once stored in a
// RIB.
func (p ASPath) Prepend(asn uint32) ASPath {
	if len(p.Segments) == 0 || p.Segments[0].Type != SegASSequence {
		segs := make([]ASSegment, 0, len(p.Segments)+1)
		segs = append(segs, ASSegment{Type: SegASSequence, ASNs: []uint32{asn}})
		for _, s := range p.Segments {
			segs = append(segs, ASSegment{Type: s.Type, ASNs: append([]uint32(nil), s.ASNs...)})
		}
		return ASPath{Segments: segs}
	}
	segs := make([]ASSegment, len(p.Segments))
	head := p.Segments[0]
	asns := make([]uint32, 0, len(head.ASNs)+1)
	asns = append(asns, asn)
	asns = append(asns, head.ASNs...)
	segs[0] = ASSegment{Type: SegASSequence, ASNs: asns}
	for i := 1; i < len(p.Segments); i++ {
		s := p.Segments[i]
		segs[i] = ASSegment{Type: s.Type, ASNs: append([]uint32(nil), s.ASNs...)}
	}
	return ASPath{Segments: segs}
}

// Clone deep-copies the path.
func (p ASPath) Clone() ASPath {
	segs := make([]ASSegment, len(p.Segments))
	for i, s := range p.Segments {
		segs[i] = ASSegment{Type: s.Type, ASNs: append([]uint32(nil), s.ASNs...)}
	}
	return ASPath{Segments: segs}
}

// Equal reports deep equality of two paths.
func (p ASPath) Equal(q ASPath) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		a, b := p.Segments[i], q.Segments[i]
		if a.Type != b.Type || len(a.ASNs) != len(b.ASNs) {
			return false
		}
		for j := range a.ASNs {
			if a.ASNs[j] != b.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path in the conventional "65001 65002 {65003,65004}"
// notation.
func (p ASPath) String() string {
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Type == SegASSet {
			b.WriteByte('{')
			for j, a := range s.ASNs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(uint64(a), 10))
			}
			b.WriteByte('}')
		} else {
			for j, a := range s.ASNs {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.FormatUint(uint64(a), 10))
			}
		}
	}
	return b.String()
}

// appendWire appends the attribute value encoding of the path. In 2-octet
// mode (as4 false) ASNs above 0xFFFF are written as AS_TRANS; the caller
// is responsible for also emitting AS4_PATH so the true path survives.
func (p ASPath) appendWire(dst []byte, as4 bool) []byte {
	for _, s := range p.Segments {
		dst = append(dst, s.Type, byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			if as4 {
				dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
			} else {
				w := a
				if w > 0xFFFF {
					w = ASTrans
				}
				dst = append(dst, byte(w>>8), byte(w))
			}
		}
	}
	return dst
}

// wireLen returns the encoded size of the path attribute value.
func (p ASPath) wireLen(as4 bool) int {
	sz := 2
	if as4 {
		sz = 4
	}
	n := 0
	for _, s := range p.Segments {
		n += 2 + sz*len(s.ASNs)
	}
	return n
}

// parseASPath decodes an AS_PATH (or AS4_PATH) attribute value. asnSize is
// the per-ASN octet count: 2 for a classic AS_PATH on a 2-octet session, 4
// for AS4_PATH and for AS_PATH on a session that negotiated 4-octet AS
// numbers. Segments and ASNs are taken from ar (nil: each slice
// allocated on its own).
func parseASPath(b []byte, asnSize int, ar *arena) (ASPath, error) {
	var p ASPath
	for len(b) > 0 {
		if len(b) < 2 {
			return ASPath{}, notifyErrf(ErrCodeUpdate, ErrSubMalformedASPath, nil, "truncated AS_PATH segment header")
		}
		typ, cnt := b[0], int(b[1])
		if typ != SegASSet && typ != SegASSequence {
			return ASPath{}, notifyErrf(ErrCodeUpdate, ErrSubMalformedASPath, nil, "bad AS_PATH segment type %d", typ)
		}
		if cnt == 0 {
			return ASPath{}, notifyErrf(ErrCodeUpdate, ErrSubMalformedASPath, nil, "empty AS_PATH segment")
		}
		need := 2 + asnSize*cnt
		if len(b) < need {
			return ASPath{}, notifyErrf(ErrCodeUpdate, ErrSubMalformedASPath, nil, "truncated AS_PATH segment body")
		}
		seg := ASSegment{Type: typ, ASNs: cutRun(ar.uint32s(), cnt)}
		for i := 0; i < cnt; i++ {
			off := 2 + asnSize*i
			if asnSize == 4 {
				seg.ASNs[i] = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
			} else {
				seg.ASNs[i] = uint32(b[off])<<8 | uint32(b[off+1])
			}
		}
		p.Segments = appendRun(ar.segments(), p.Segments, seg)
		b = b[need:]
	}
	return p, nil
}

// mergeAS4Path reconstructs the true path from a 2-octet AS_PATH (with
// AS_TRANS substitutions) and the AS4_PATH attribute, per RFC 6793
// section 4.2.3: when AS4_PATH claims more ASNs than AS_PATH it is
// ignored; otherwise the merged path is the leading (n - n4) ASNs of
// AS_PATH followed by all of AS4_PATH.
func mergeAS4Path(path, as4 ASPath) ASPath {
	n, n4 := path.asnCount(), as4.asnCount()
	if n4 > n || n4 == 0 {
		return path
	}
	lead := n - n4
	if lead == 0 {
		return as4.Clone()
	}
	var out ASPath
	taken := 0
	for _, s := range path.Segments {
		if taken >= lead {
			break
		}
		take := len(s.ASNs)
		if taken+take > lead {
			take = lead - taken
		}
		out.Segments = append(out.Segments, ASSegment{Type: s.Type, ASNs: append([]uint32(nil), s.ASNs[:take]...)})
		taken += take
	}
	for _, s := range as4.Segments {
		out.Segments = append(out.Segments, ASSegment{Type: s.Type, ASNs: append([]uint32(nil), s.ASNs...)})
	}
	return out
}
