package farm

import (
	"encoding/binary"
	"fmt"
	"math"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
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
// One field list (Record.code) drives both directions.

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
	if c.err == nil && len(c.buf) > 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.buf))
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
	slice(c, &rec.CommTimes, 1, integer[des.Time])
	slice(c, &rec.AvgHops, 8, (*codec).float)
	slice(c, &rec.Links, 8, codeLink)
	slice(c, &rec.AppRouters, 1, integer[topology.RouterID])
	slice(c, &rec.AppNodes, 1, integer[topology.NodeID])
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
	slice(c, &rec.Audit.Violations, 1, (*codec).string)
}

// codeLink is LinkStat's field list; each field takes at least one byte.
func codeLink(c *codec, l *network.LinkStat) {
	unsigned(c, &l.Kind)
	integer(c, &l.From)
	integer(c, &l.To)
	integer(c, &l.Node)
	c.bool(&l.Eject)
	c.varint(&l.Bytes)
	c.varint(&l.Packets)
	integer(c, &l.SatTime)
}

// codec is one pass of the bin1 codec: it appends to buf when encoding and
// consumes buf when decoding. Encoding only reads the fields it is handed,
// so concurrent encodes of one record are safe. The first decode error
// sticks and empties buf, so every later read fails fast.
type codec struct {
	buf []byte
	dec bool
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.buf = nil
}

func (c *codec) uvarint(p *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	v, n := binary.Uvarint(c.buf)
	// A final zero byte after a continuation is a non-minimal encoding.
	if n <= 0 || n > 1 && c.buf[n-1] == 0 {
		c.fail("bad varint")
		return
	}
	*p, c.buf = v, c.buf[n:]
}

func (c *codec) varint(p *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *p)
		return
	}
	var u uint64
	c.uvarint(&u)
	*p = int64(u>>1) ^ -int64(u&1)
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
	if len(c.buf) == 0 || c.buf[0] > 1 {
		c.fail("bad bool")
		return
	}
	*p, c.buf = c.buf[0] == 1, c.buf[1:]
}

func (c *codec) float(p *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
		return
	}
	if len(c.buf) < 8 {
		c.fail("truncated float")
		return
	}
	*p, c.buf = math.Float64frombits(binary.LittleEndian.Uint64(c.buf)), c.buf[8:]
}

func (c *codec) string(p *string) {
	n := uint64(len(*p))
	c.uvarint(&n)
	if !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	if n > uint64(len(c.buf)) {
		c.fail("string of %d bytes, %d left", n, len(c.buf))
		return
	}
	*p, c.buf = string(c.buf[:n]), c.buf[n:]
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

// unsigned codes an unsigned integer field, rejecting decoded values that
// do not fit its type.
func unsigned[T ~uint8](c *codec, p *T) {
	v := uint64(*p)
	c.uvarint(&v)
	if c.dec {
		if uint64(T(v)) != v {
			c.fail("%d overflows %T", v, *p)
		}
		*p = T(v)
	}
}

// slice codes a slice field whose elements each encode to at least minSize
// bytes, which bounds a decoded length by the bytes left.
func slice[T any](c *codec, s *[]T, minSize int, elem func(*codec, *T)) {
	var n uint64
	if *s != nil {
		n = uint64(len(*s)) + 1
	}
	c.uvarint(&n)
	if c.dec {
		if n == 0 {
			return
		}
		if n-1 > uint64(len(c.buf)/minSize) {
			c.fail("%d elements in %d bytes", n-1, len(c.buf))
			return
		}
		*s = make([]T, n-1)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}
