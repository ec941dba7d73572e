package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"bgpbench/internal/netaddr"
)

// checkReaderMatchesParse reads stream through ReadInto and walks the same
// bytes frame by frame through ParseHeader and ParseBodyMode, requiring
// equal messages and equal errors (as *NotifyError where the parser
// reports one) until the stream ends or loses its framing.
func checkReaderMatchesParse(t *testing.T, stream []byte, as4 bool) {
	t.Helper()
	r := NewReader(bytes.NewReader(stream))
	r.SetFourOctetAS(as4)
	var u Update
	for off := 0; ; {
		typ, m, err := r.ReadInto(&u)
		rest := stream[off:]
		switch {
		case len(rest) == 0:
			if err != io.EOF {
				t.Fatalf("at end of stream: got %v, want EOF", err)
			}
			return
		case len(rest) < HeaderLen:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated header: got %v, want ErrUnexpectedEOF", err)
			}
			return
		}
		length, wtyp, herr := ParseHeader(rest[:HeaderLen])
		if herr != nil {
			if !reflect.DeepEqual(err, herr) {
				t.Fatalf("bad header: got %v, want %v", err, herr)
			}
			return
		}
		if len(rest) < length {
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated body: got %v, want ErrUnexpectedEOF", err)
			}
			return
		}
		want, werr := ParseBodyMode(wtyp, rest[HeaderLen:length], as4)
		if !reflect.DeepEqual(err, werr) {
			t.Fatalf("offset %d: error %#v, want %#v", off, err, werr)
		}
		if werr == nil {
			got := m
			if typ == MsgUpdate {
				if m != nil {
					t.Fatalf("offset %d: UPDATE returned as %T", off, m)
				}
				got = u
			}
			if typ != wtyp || !reflect.DeepEqual(got, want) {
				t.Fatalf("offset %d (as4=%v):\n got %v %#v\nwant %v %#v", off, as4, typ, got, wtyp, want)
			}
		}
		off += length
	}
}

// readerCorpus is the wire fuzz corpora as byte streams: the MP-BGP seed
// corpus one message at a time and all of it as one stream, the netem-
// corrupted session transcripts, and bit-flipped copies of the seeds.
func readerCorpus(t *testing.T) [][]byte {
	seeds := mpUpdateSeeds(t)
	seeds = append(seeds, openWithCaps(t), mustMarshal(t, Notification{Code: 6, Data: []byte{1}}),
		mustMarshal(t, Keepalive{}), mustMarshal(t, IPv6UnicastRefresh()))
	corpus := append([][]byte(nil), seeds...)
	corpus = append(corpus, bytes.Join(seeds, nil))
	corpus = append(corpus, netemCorruptedStreams(t)...)
	rng := rand.New(rand.NewSource(1706))
	for i := 0; i < 3000; i++ {
		buf := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			buf[16+rng.Intn(len(buf)-16)] ^= byte(1 << rng.Intn(8))
		}
		corpus = append(corpus, buf)
	}
	return corpus
}

// TestReaderMatchesParseBody is the differential check on the in-place
// decode: over the wire corpora, in both AS_PATH modes, ReadInto yields
// exactly what ParseBodyMode does, errors included.
func TestReaderMatchesParseBody(t *testing.T) {
	for _, stream := range readerCorpus(t) {
		checkReaderMatchesParse(t, stream, false)
		checkReaderMatchesParse(t, stream, true)
	}
}

// FuzzReaderMatchesParseBody fuzzes the differential check from the
// MP-BGP seed corpus: any byte stream, either AS_PATH mode.
func FuzzReaderMatchesParseBody(f *testing.F) {
	seeds := mpUpdateSeeds(f)
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Add(bytes.Join(seeds, nil), false)
	f.Fuzz(func(t *testing.T, stream []byte, as4 bool) {
		checkReaderMatchesParse(t, stream, as4)
	})
}

// TestReaderSlicesDoNotAlias: the slices of consecutively decoded UPDATEs
// share chunks, so each is capped at its own length: appending to one
// message's NLRI, Withdrawn, AS_PATH segments or ASNs reallocates and
// leaves the next message as decoded.
func TestReaderSlicesDoNotAlias(t *testing.T) {
	nh := netaddr.MustParseAddr("10.0.0.1")
	msg := func(i byte) Update {
		return Update{
			Withdrawn: []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFrom4(10, 1, i, 0), 24)},
			Attrs:     NewPathAttrs(OriginIGP, NewASPath(65001, uint32(i)), nh),
			NLRI:      []netaddr.Prefix{netaddr.PrefixFrom(netaddr.AddrFrom4(10, 2, i, 0), 24)},
		}
	}
	var stream []byte
	for i := byte(1); i <= 2; i++ {
		b, err := AppendMessageMode(stream, msg(i), true)
		if err != nil {
			t.Fatal(err)
		}
		stream = b
	}
	r := NewReader(bytes.NewReader(stream))
	r.SetFourOctetAS(true)
	var first, second Update
	for _, u := range []*Update{&first, &second} {
		if typ, _, err := r.ReadInto(u); err != nil || typ != MsgUpdate {
			t.Fatalf("ReadInto: %v %v", typ, err)
		}
	}
	want := msg(2)
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("second decoded as %v, want %v", second, want)
	}
	junk := netaddr.PrefixFrom(netaddr.AddrFrom4(192, 0, 2, 0), 24)
	_ = append(first.NLRI, junk)
	_ = append(first.Withdrawn, junk)
	_ = append(first.Attrs.ASPath.Segments, ASSegment{Type: SegASSet, ASNs: []uint32{9}})
	_ = append(first.Attrs.ASPath.Segments[0].ASNs, 9)
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("appending to the first message changed the second: %v, want %v", second, want)
	}
}

// loopReader replays buf forever without allocating.
type loopReader struct {
	buf []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.buf[l.off:])
	l.off = (l.off + n) % len(l.buf)
	return n, nil
}

// TestReaderDecodeAllocs guards the in-place decode: in steady state a
// stream of 1-prefix announces and withdraws in 4-octet encoding costs
// at most 0.01 allocations per message, the arena's chunk refills.
func TestReaderDecodeAllocs(t *testing.T) {
	var stream []byte
	for i := 0; i < 256; i++ {
		p := netaddr.PrefixFrom(netaddr.AddrFrom4(10, byte(i>>2), byte(i), 0), 24)
		u := Update{Withdrawn: []netaddr.Prefix{p}}
		if i%2 == 0 {
			u = Update{
				Attrs: NewPathAttrs(OriginIGP, NewASPath(65001, 64512, 70000+uint32(i)), netaddr.MustParseAddr("10.0.0.1")),
				NLRI:  []netaddr.Prefix{p},
			}
		}
		b, err := AppendMessageMode(stream, u, true)
		if err != nil {
			t.Fatal(err)
		}
		stream = b
	}
	r := NewReader(&loopReader{buf: stream})
	r.SetFourOctetAS(true)
	const perRun = 10000
	var u Update
	read := func() {
		for i := 0; i < perRun; i++ {
			if _, _, err := r.ReadInto(&u); err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	if got := testing.AllocsPerRun(5, read) / perRun; got > 0.01 {
		t.Fatalf("ReadInto allocated %.4f times per message, want <= 0.01", got)
	}
}
