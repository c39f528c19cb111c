package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/audit"
	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// quickRecord simulates one cell of a flat miniapp at the experiments'
// quick scale (the quick machine, the catalog's quick size) and returns its
// record.
func quickRecord(tb testing.TB, app string, cell core.Cell, auditOn bool) *Record {
	tb.Helper()
	tr, _, err := trace.BuildApp(app, trace.Quick)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Topology: topology.Quick(), Params: network.DefaultParams(),
		Placement: cell.Placement, Routing: cell.Routing,
		Trace: tr, Seed: 1, Audit: auditOn,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return RecordOf(res)
}

// TestRecordBytesPinned pins the bin1 payloads of three quick-scale cells
// to the SHA-256 of their bytes: CR cont-min, FB rand-adp, and an audited
// CR rand-adp whose payload carries the audit summary. Every banked store
// holds these bytes, so a codec that writes anything else, even a record
// it decodes back, orphans them; a round trip within one build cannot see
// that, only a literal can.
func TestRecordBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		app     string
		cell    core.Cell
		auditOn bool
		want    string
	}{
		{"CR cont-min", "CR", core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}, false, "08b1111dd0c235951af60109ce0e052e59ba870ddc016c02a3dd95e1fec66635"},
		{"FB rand-adp", "FB", core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, false, "0903c5c3721c4fafade6c4a2b5fa61a1f5ce9d02b5f3bad8ec7124ec923e5114"},
		{"CR rand-adp audited", "CR", core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, true, "2ccb1df0043e6f7822a5b8a9fbe2aab2b3d496509ce6972f7dfc8a2019adb9ce"},
	} {
		rec := quickRecord(t, tc.app, tc.cell, tc.auditOn)
		if len(rec.Links) != 1280 || (rec.Audit != nil) != tc.auditOn {
			t.Fatalf("%s: %d links, audit %v: not the quick machine's cell", tc.name, len(rec.Links), rec.Audit != nil)
		}
		payload := encodeRecord(rec)
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: payload (%d bytes) digest %s, want %s: the bin1 bytes drifted", tc.name, len(payload), got, tc.want)
		}
		got, err := decodeRecord(payload)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: payload does not decode to its record (decode error %v)", tc.name, err)
		}
	}
}

// TestRecordCodecAllocs pins the codec's allocations on a quick-scale
// record: an encode allocates its buffer alone, and a decode the record and
// its five slices. The codec itself stays on the stack; a coder called
// through a function value would move it to the heap, one more allocation
// per encode and per decode.
func TestRecordCodecAllocs(t *testing.T) {
	rec := quickRecord(t, "CR", core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}, false)
	payload := encodeRecord(rec)
	if n := testing.AllocsPerRun(10, func() { encodeRecord(rec) }); n != 1 {
		t.Errorf("encode: %v allocations, want 1", n)
	}
	var err error
	if n := testing.AllocsPerRun(10, func() { _, err = decodeRecord(payload) }); n != 6 || err != nil {
		t.Errorf("decode: %v allocations (error %v), want 6", n, err)
	}
}

// TestWarmHitAllocs pins what a banked cell costs a resumed sweep: Store.Get
// reads, verifies and decodes the entry, and Record.Result materializes the
// result. One allocation more fails, on any host.
func TestWarmHitAllocs(t *testing.T) {
	tr, _, err := trace.BuildApp("CR", trace.Quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Topology: topology.Quick(), Params: network.DefaultParams(),
		Placement: placement.Contiguous, Routing: routing.Minimal, Trace: tr, Seed: 1,
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := Address(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(addr, RecordOf(res)); err != nil {
		t.Fatal(err)
	}
	hit := func() {
		rec, err := s.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		rec.Result(cfg)
	}
	hit()
	if n := testing.AllocsPerRun(20, hit); n != 24 {
		t.Errorf("warm hit: %v allocations, want 24", n)
	}
}

// TestRecordCodecCoversEveryField sets each scalar field reachable from
// Record (through network.LinkStat, audit.Summary and audit.Stats) to a
// non-zero value, one at a time, and requires the codec to carry it. JSON
// picked up new fields by itself; the hand-written codec drops any field
// Record.code or codeLinks does not list, and a warm replay would then
// differ from the cold run.
func TestRecordCodecCoversEveryField(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; ; k++ {
		rec, skip := new(Record), k
		path := setLeaf(t, reflect.ValueOf(rec).Elem(), "Record", &skip)
		if path == "" {
			break
		}
		seen[path] = true
		got, err := decodeRecord(encodeRecord(rec))
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s does not survive the codec (decode error %v)", path, err)
		}
	}
	for _, p := range []string{"Record.Links[0].SatTime", "Record.Audit.Stats.Violations", "Record.Audit.Violations[0]"} {
		if !seen[p] {
			t.Errorf("field walk never reached %s", p)
		}
	}
}

// setLeaf sets the k-th scalar field reachable from v, depth first through
// structs, pointers and one-element slices, to a non-zero value and returns
// its path; it returns "" when v holds fewer than k+1 scalars.
func setLeaf(t *testing.T, v reflect.Value, path string, k *int) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := setLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, k); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return setLeaf(t, v.Elem(), path, k)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return setLeaf(t, v.Index(0), path+"[0]", k)
	}
	if *k > 0 {
		*k--
		return ""
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(-3)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	default:
		t.Fatalf("%s: the codec has no case for kind %s", path, v.Kind())
	}
	return path
}

// FuzzRecordCodec checks the codec two ways. Arbitrary payload bytes
// either decode or return an error, never panic, and whatever decodes
// re-encodes to the same bytes. And a record built from the same bytes
// survives the codec exactly as it survives JSON, nil and empty slices
// included: the test-only JSON round trip is the oracle.
func FuzzRecordCodec(f *testing.F) {
	audited := testRecord()
	audited.Links = append(audited.Links, network.LinkStat{Kind: routing.Global, From: -1, Node: 7, Eject: true})
	audited.AppNodes = []topology.NodeID{}
	audited.RouteErr, audited.HasRouteErr = "routing: no live path", true
	audited.Audit = &audit.Summary{Stats: audit.Stats{Events: 1 << 40, Violations: 1}, Violations: []string{"credit underflow"}}
	good := encodeRecord(testRecord())
	f.Add([]byte{})
	f.Add(good)
	f.Add(encodeRecord(audited))
	// Near misses that must not decode, or they would re-encode differently
	// or allocate what they claim: Version as a non-minimal varint,
	// Completed as 2, a trailing byte, 2^32 comm times in 5 bytes, and an
	// otherwise empty record whose one app router is 2^31, past int32.
	f.Add(append([]byte{0x82, 0x00}, good[1:]...))
	f.Add(append([]byte{good[0], 2}, good[2:]...))
	f.Add(append(good[:len(good):len(good)], 0))
	f.Add([]byte{good[0], good[1], 0x81, 0x80, 0x80, 0x80, 0x10})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// The links column's own checks, in an otherwise empty record holding
	// one link: all zero (decodes), then Eject as 2, Kind as 256, From,
	// To and Node each as 2^31, and SatTime as a non-minimal varint.
	oneLink := func(fields ...byte) []byte {
		return append(append([]byte{0, 0, 0, 0, 2}, fields...), make([]byte, 10)...)
	}
	f.Add(oneLink(0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(oneLink(0, 0, 0, 0, 2, 0, 0, 0))
	f.Add(oneLink(0x80, 0x02, 0, 0, 0, 0, 0, 0, 0))
	f.Add(oneLink(0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0, 0, 0))
	f.Add(oneLink(0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0, 0))
	f.Add(oneLink(0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0))
	f.Add(oneLink(0, 0, 0, 0, 0, 0, 0, 0x80, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeRecord(data); err == nil {
			if out := encodeRecord(rec); !bytes.Equal(out, data) {
				t.Fatalf("payload re-encodes differently:\nin  %x\nout %x", data, out)
			}
		}

		src := fuzzSource(data)
		rec := src.record()
		got, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatalf("encoded record does not decode: %v", err)
		}
		js, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want := new(Record)
		if err := json.Unmarshal(js, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("codec round trip differs from JSON's:\ncodec %+v\njson  %+v", got, want)
		}
	})
}

// fuzzSource draws record fields from fuzz bytes, reading zeros once they
// run out.
type fuzzSource []byte

func (s *fuzzSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// uint reads a width byte, then that many (at most 8) value bytes, so small
// and extreme values are each one mutation away.
func (s *fuzzSource) uint() uint64 {
	var v uint64
	for w := s.byte() % 9; w > 0; w-- {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

func (s *fuzzSource) int() int64 {
	u := s.uint()
	return int64(u>>1) ^ -int64(u&1)
}

// float keeps to finite values, which JSON can carry.
func (s *fuzzSource) float() float64 {
	if f := math.Float64frombits(s.uint()); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f
	}
	return 0
}

// string keeps to valid UTF-8, which JSON carries unchanged.
func (s *fuzzSource) string() string {
	n := int(s.byte() % 8)
	b := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, s.byte())
	}
	return strings.ToValidUTF8(string(b), "?")
}

// fuzzSlice draws a nil slice, an empty one, or up to four elements.
func fuzzSlice[T any](s *fuzzSource, elem func() T) []T {
	n := int(s.byte() % 6)
	if n == 0 {
		return nil
	}
	out := make([]T, n-1)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (s *fuzzSource) record() *Record {
	rec := &Record{
		Version:   int(s.int()),
		Completed: s.byte()%2 == 1,
		CommTimes: fuzzSlice(s, func() des.Time { return des.Time(s.int()) }),
		AvgHops:   fuzzSlice(s, s.float),
		Links: fuzzSlice(s, func() network.LinkStat {
			return network.LinkStat{
				Kind: routing.LinkKind(s.byte()), From: topology.RouterID(s.int()),
				To: topology.RouterID(s.int()), Node: topology.NodeID(s.int()), Eject: s.byte()%2 == 1,
				Bytes: s.int(), Packets: s.int(), SatTime: des.Time(s.int()),
			}
		}),
		AppRouters:         fuzzSlice(s, func() topology.RouterID { return topology.RouterID(s.int()) }),
		AppNodes:           fuzzSlice(s, func() topology.NodeID { return topology.NodeID(s.int()) }),
		BackgroundPeakLoad: s.int(),
		Duration:           des.Time(s.int()),
		Events:             s.uint(),
		DroppedPackets:     s.int(),
		DroppedBytes:       s.int(),
		RouteErr:           s.string(),
		HasRouteErr:        s.byte()%2 == 1,
	}
	if s.byte()%2 == 1 {
		rec.Audit = &audit.Summary{
			Stats: audit.Stats{
				Events: s.uint(), Reserves: s.uint(), Releases: s.uint(), Routes: s.uint(), Messages: s.uint(),
				PacketsInjected: s.uint(), PacketsDelivered: s.uint(), PacketsDropped: s.uint(), Violations: s.uint(),
			},
			Violations: fuzzSlice(s, s.string),
		}
	}
	return rec
}
