package farm

import (
	"encoding/binary"
	"fmt"
	"math"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// The record codec, named "bin1" in an entry's header, writes Record's
// fields in declaration order, nested structs inline:
//
//   - signed integers as zigzag varints, unsigned ones as varints;
//   - a float64 as its 8 IEEE-754 bytes, little-endian, so it round-trips
//     bit-exact;
//   - a bool as one byte, 0 or 1;
//   - a slice as its length+1, 0 meaning nil, then its elements, so nil
//     and empty slices stay distinct;
//   - a string as its byte length, then its bytes;
//   - Audit as a presence byte, then the summary.
//
// Decoding accepts exactly the bytes encoding writes: minimal varints,
// in-range values, bools of 0 or 1, lengths bounded by the bytes left, and
// no trailing bytes. So every decodable payload re-encodes to itself, and
// damaged input is an error, never a panic or an oversized allocation.
// One field list (Record.code) drives both directions, and the links
// column, most of a record's bytes, has its own (codeLinks).

// encodeRecord returns rec's bin1 payload, in a buffer sized for typical
// field widths so that it is usually allocated once.
func encodeRecord(rec *Record) []byte {
	n := len(rec.CommTimes) + len(rec.AvgHops) + len(rec.AppRouters) + len(rec.AppNodes)
	c := codec{buf: make([]byte, 0, 64+24*len(rec.Links)+8*n)}
	rec.code(&c)
	return c.buf
}

// decodeRecord parses a bin1 payload holding exactly one record.
func decodeRecord(payload []byte) (*Record, error) {
	rec := new(Record)
	c := codec{buf: payload, dec: true}
	rec.code(&c)
	if c.err == nil && c.off < len(c.buf) {
		c.err = fmt.Errorf("%d trailing bytes", len(c.buf)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return rec, nil
}

// code runs c over every field of rec, in bin1 order.
func (rec *Record) code(c *codec) {
	integer(c, &rec.Version)
	c.bool(&rec.Completed)
	integers(c, &rec.CommTimes)
	length(c, &rec.AvgHops, 8)
	for i := range rec.AvgHops {
		c.float(&rec.AvgHops[i])
	}
	codeLinks(c, &rec.Links)
	integers(c, &rec.AppRouters)
	integers(c, &rec.AppNodes)
	c.varint(&rec.BackgroundPeakLoad)
	integer(c, &rec.Duration)
	c.uvarint(&rec.Events)
	c.varint(&rec.DroppedPackets)
	c.varint(&rec.DroppedBytes)
	c.string(&rec.RouteErr)
	c.bool(&rec.HasRouteErr)
	present := rec.Audit != nil
	c.bool(&present)
	if !present {
		return
	}
	if c.dec {
		rec.Audit = new(audit.Summary)
	}
	s := &rec.Audit.Stats
	for _, p := range [...]*uint64{&s.Events, &s.Reserves, &s.Releases, &s.Routes, &s.Messages,
		&s.PacketsInjected, &s.PacketsDelivered, &s.PacketsDropped, &s.Violations} {
		c.uvarint(p)
	}
	length(c, &rec.Audit.Violations, 1)
	for i := range rec.Audit.Violations {
		c.string(&rec.Audit.Violations[i])
	}
}

// linkFields is the number of fields of one LinkStat in the links column,
// each at least one byte.
const linkFields = 8

// codeLinks codes the links column, most of a record's bytes: its length
// as slice codes it, then per link eight varints, Kind, From, To, Node,
// Eject, Bytes, Packets and SatTime, unsigned for Kind and Eject (so a
// bool's 0 or 1 byte) and zigzag for the rest. Its append loop and parse
// loop are that layout's one definition. The parse loop reads one-byte
// varints, most of the column, inline and passes longer ones to
// uvarintAt; one test per link then checks each field's range, as integer
// and bool do for the other fields.
func codeLinks(c *codec, s *[]network.LinkStat) {
	length(c, s, linkFields)
	if !c.dec {
		for i := range *s {
			l := &(*s)[i]
			eject := uint64(0)
			if l.Eject {
				eject = 1
			}
			c.buf = binary.AppendUvarint(c.buf, uint64(l.Kind))
			c.buf = binary.AppendVarint(c.buf, int64(l.From))
			c.buf = binary.AppendVarint(c.buf, int64(l.To))
			c.buf = binary.AppendVarint(c.buf, int64(l.Node))
			c.buf = binary.AppendUvarint(c.buf, eject)
			c.buf = binary.AppendVarint(c.buf, l.Bytes)
			c.buf = binary.AppendVarint(c.buf, l.Packets)
			c.buf = binary.AppendVarint(c.buf, int64(l.SatTime))
		}
		return
	}
	links, buf, off := *s, c.buf, c.off
	var f [linkFields]uint64
	for i := range links {
		for k := range f {
			if off < len(buf) && buf[off] < 0x80 {
				f[k], off = uint64(buf[off]), off+1
			} else {
				f[k], off = c.uvarintAt(off)
			}
		}
		if c.err != nil {
			return
		}
		// Kind fits uint8, Eject is 0 or 1, and From, To and Node fit
		// int32, which their zigzag forms do exactly below 2^32.
		if f[0]>>8|f[4]>>1|(f[1]|f[2]|f[3])>>32 != 0 {
			c.fail("link %d: field out of range", i)
			return
		}
		links[i] = network.LinkStat{
			Kind: routing.LinkKind(f[0]), From: topology.RouterID(zigzag(f[1])),
			To: topology.RouterID(zigzag(f[2])), Node: topology.NodeID(zigzag(f[3])), Eject: f[4] == 1,
			Bytes: zigzag(f[5]), Packets: zigzag(f[6]), SatTime: des.Time(zigzag(f[7])),
		}
	}
	c.off = off
}

// codec is one pass of the bin1 codec: it appends to buf when encoding and
// reads buf from off when decoding. Every coder is a direct call, so the
// codec stays on its caller's stack and is not allocated; decoding advances
// an integer offset rather than reslicing buf. Encoding only reads the
// fields it is handed, so concurrent encodes of one record are safe. The
// first decode error sticks and moves off to the end of buf, so every
// later read fails fast.
type codec struct {
	buf []byte
	off int
	dec bool
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.off = len(c.buf)
}

// uvarintAt decodes the minimal uvarint at off and returns it with the
// offset past it.
func (c *codec) uvarintAt(off int) (uint64, int) {
	v, n := binary.Uvarint(c.buf[off:])
	// A final zero byte after a continuation is a non-minimal encoding.
	if n <= 0 || n > 1 && c.buf[off+n-1] == 0 {
		c.fail("bad varint")
		return 0, c.off
	}
	return v, off + n
}

func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (c *codec) uvarint(p *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	*p, c.off = c.uvarintAt(c.off)
}

func (c *codec) varint(p *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *p)
		return
	}
	var u uint64
	u, c.off = c.uvarintAt(c.off)
	*p = zigzag(u)
}

func (c *codec) bool(p *bool) {
	if !c.dec {
		b := byte(0)
		if *p {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.off == len(c.buf) || c.buf[c.off] > 1 {
		c.fail("bad bool")
		return
	}
	*p = c.buf[c.off] == 1
	c.off++
}

func (c *codec) float(p *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
		return
	}
	if len(c.buf)-c.off < 8 {
		c.fail("truncated float")
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
}

func (c *codec) string(p *string) {
	n := uint64(len(*p))
	c.uvarint(&n)
	if !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	if n > uint64(len(c.buf)-c.off) {
		c.fail("string of %d bytes, %d left", n, len(c.buf)-c.off)
		return
	}
	*p = string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
}

// integer codes a signed integer field, rejecting decoded values that do
// not fit its type.
func integer[T ~int | ~int32 | ~int64](c *codec, p *T) {
	v := int64(*p)
	c.varint(&v)
	if c.dec {
		if int64(T(v)) != v {
			c.fail("%d overflows %T", v, *p)
		}
		*p = T(v)
	}
}

// length codes a slice's length as length+1, 0 meaning nil, so nil and
// empty slices stay distinct. Decoding makes the slice, after checking that
// its elements, each at least minSize bytes, fit in the bytes left.
func length[T any](c *codec, s *[]T, minSize int) {
	var n uint64
	if *s != nil {
		n = uint64(len(*s)) + 1
	}
	c.uvarint(&n)
	if !c.dec || n == 0 {
		return
	}
	if left := len(c.buf) - c.off; n-1 > uint64(left/minSize) {
		c.fail("%d elements in %d bytes", n-1, left)
		return
	}
	*s = make([]T, n-1)
}

// integers codes a slice of signed integers, each as integer codes it.
func integers[T ~int | ~int32 | ~int64](c *codec, s *[]T) {
	length(c, s, 1)
	for i := range *s {
		integer(c, &(*s)[i])
	}
}
