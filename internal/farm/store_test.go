package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/topology"
)

func testRecord() *Record {
	return &Record{
		Version:   codecVersion,
		Completed: true,
		CommTimes: []des.Time{100, 250, 300},
		AvgHops:   []float64{1.5, 2.25, 3.125},
		Links: []network.LinkStat{
			{Kind: 0, From: 0, To: 1, Bytes: 4096, Packets: 1, SatTime: 10},
		},
		AppRouters:     []topology.RouterID{0, 1},
		AppNodes:       []topology.NodeID{0, 1, 2},
		Duration:       12345,
		Events:         99,
		DroppedPackets: 1,
		DroppedBytes:   4096,
	}
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTestStore(t)
	addr := AddressOf("round trip")
	if _, err := s.Get(addr); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty store Get = %v, want ErrMiss", err)
	}
	want := testRecord()
	if err := s.Put(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if !s.Has(addr) {
		t.Fatal("Has reports false for a stored entry")
	}
}

// TestStoreMakesDirectoriesOnDemand: the first Put under an address prefix
// makes its fan-out directory and a second Put writes into it, and the
// first quarantine record makes quarantine/jobs. A store whose root was
// removed after Open fails its Put, neither growing a new root nor trying
// again without end.
func TestStoreMakesDirectoriesOnDemand(t *testing.T) {
	s := openTestStore(t)
	first := AddressOf("fan-out")
	second := first[:2] + AddressOf("same prefix")[2:]
	for _, addr := range []string{first, second} {
		if err := s.Put(addr, testRecord()); err != nil {
			t.Fatalf("Put %s: %v", short(addr), err)
		}
		if _, err := s.Get(addr); err != nil {
			t.Fatalf("Get %s: %v", short(addr), err)
		}
	}
	if err := s.QuarantineJob(&QuarantineRecord{Name: "poisoned", Attempts: 1, Errors: []string{"boom"}}); err != nil {
		t.Fatal(err)
	}
	if recs, err := s.QuarantinedJobs(); err != nil || len(recs) != 1 {
		t.Fatalf("QuarantinedJobs = %d records, %v; want 1", len(recs), err)
	}

	gone := openTestStore(t)
	if err := os.RemoveAll(gone.Root()); err != nil {
		t.Fatal(err)
	}
	if err := gone.Put(first, testRecord()); err == nil {
		t.Fatal("Put into a store whose root was removed succeeded")
	}
	if _, err := os.Stat(gone.Root()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Put made the removed root again (stat: %v)", err)
	}
}

// TestStoreDetectsCorruption is the robustness matrix of the entry codec:
// truncation, bit flips in header and payload, a wrong codec version, and
// an entry copied under the wrong address must all surface as ErrCorrupt —
// a re-run — never as a decoded (wrong) result or a panic.
func TestStoreDetectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(t *testing.T, s *Store, addr string)
	}{
		{"truncated to half", func(t *testing.T, s *Store, addr string) {
			p := s.entryPath(addr)
			data, _ := os.ReadFile(p)
			os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"truncated header", func(t *testing.T, s *Store, addr string) {
			os.WriteFile(s.entryPath(addr), []byte("DFFARM1 js"), 0o644)
		}},
		{"empty file", func(t *testing.T, s *Store, addr string) {
			os.WriteFile(s.entryPath(addr), nil, 0o644)
		}},
		{"payload bit flip", func(t *testing.T, s *Store, addr string) {
			p := s.entryPath(addr)
			data, _ := os.ReadFile(p)
			data[len(data)-4] ^= 0x40
			os.WriteFile(p, data, 0o644)
		}},
		{"magic bit flip", func(t *testing.T, s *Store, addr string) {
			p := s.entryPath(addr)
			data, _ := os.ReadFile(p)
			data[0] ^= 0x01
			os.WriteFile(p, data, 0o644)
		}},
		{"unknown payload codec", func(t *testing.T, s *Store, addr string) {
			p := s.entryPath(addr)
			data, _ := os.ReadFile(p)
			os.WriteFile(p, bytes.Replace(data, []byte(entryMagic+" "+entryCodec), []byte(entryMagic+" cbor"), 1), 0o644)
		}},
		{"appended garbage", func(t *testing.T, s *Store, addr string) {
			p := s.entryPath(addr)
			data, _ := os.ReadFile(p)
			os.WriteFile(p, append(data, "tail"...), 0o644)
		}},
		{"undecodable payload under a valid digest", func(t *testing.T, s *Store, addr string) {
			writeRawEntry(t, s, addr, entryCodec, append(encodeRecord(testRecord()), 0))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTestStore(t)
			addr := AddressOf("corruption:" + tc.name)
			if err := s.Put(addr, testRecord()); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, s, addr)
			_, err := s.Get(addr)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get after %s = %v, want ErrCorrupt", tc.name, err)
			}
		})
	}
}

// writeRawEntry installs payload at addr under a well-formed header that
// names codec and carries the payload's true length and digest.
func writeRawEntry(t *testing.T, s *Store, addr, codec string, payload []byte) {
	t.Helper()
	sum := sha256.Sum256(payload)
	entry := fmt.Sprintf("%s %s\naddr %s\npayload %d %x\n%s", entryMagic, codec, addr, len(payload), sum, payload)
	if err := os.WriteFile(s.entryPath(addr), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsWrongCodecVersion(t *testing.T) {
	s := openTestStore(t)
	addr := AddressOf("codec version")
	rec := testRecord()
	rec.Version = codecVersion + 1
	if err := s.Put(addr, rec); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get(addr)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-codec entry Get = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("error does not name the codec version: %v", err)
	}
}

func TestStoreRejectsRelocatedEntry(t *testing.T) {
	s := openTestStore(t)
	a, b := AddressOf("entry a"), AddressOf("entry b")
	if err := s.Put(a, testRecord()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.entryPath(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(s.entryPath(b)[:len(s.entryPath(b))-len(b)], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("relocated entry Get = %v, want ErrCorrupt (embedded address mismatch)", err)
	}
}

// TestStoreRejectsLegacyJSONEntry: an entry banked in the earlier "json"
// payload codec, with intact framing, length and digest, is corrupt rather
// than decoded. Get and Has reject it, one Farm run re-simulates the cell,
// and that run's Put heals the address for the next.
func TestStoreRejectsLegacyJSONEntry(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)[:1]
	if _, _, err := New(s, Options{Parallel: 1}).Run(cfgs); err != nil {
		t.Fatal(err)
	}
	addr, err := Address(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	writeRawEntry(t, s, addr, "json", payload)

	if _, err := s.Get(addr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("legacy entry Get = %v, want ErrCorrupt", err)
	}
	if s.Has(addr) {
		t.Fatal("Has reports a legacy entry as verifiable")
	}
	_, stats, err := New(s, Options{Parallel: 1}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 1 || stats.Misses != 1 || stats.Hits != 0 {
		t.Fatalf("legacy entry handled as corrupt=%d misses=%d hits=%d, want 1/1/0", stats.Corrupt, stats.Misses, stats.Hits)
	}
	_, stats, err = New(s, Options{Parallel: 1}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 1 || stats.Misses != 0 {
		t.Fatalf("healed entry: hits=%d misses=%d, want 1/0", stats.Hits, stats.Misses)
	}
}

// TestShortObjectNamesAreCorrupt: a name shorter than the 12-byte address
// prefix used in messages, such as a stray file or a malformed address
// over junk, is an error, never a slice-bounds panic; the scrubber
// quarantines such files like any other corrupt object.
func TestShortObjectNamesAreCorrupt(t *testing.T) {
	s := openTestStore(t)
	stray := filepath.Join(s.root, "objects", "ab", "notes")
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath("abcdef"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("abcdef"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get over junk = %v, want ErrCorrupt", err)
	}
	if err := os.Mkdir(s.entryPath("abcdefg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("abcdefg"); err == nil || errors.Is(err, ErrMiss) {
		t.Fatalf("Get over a directory = %v, want a read error", err)
	}
	if err := os.Remove(s.entryPath("abcdefg")); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.Corrupt != 2 || rep.Quarantined != 2 {
		t.Fatalf("scrub report %+v, want checked=2 corrupt=2 quarantined=2", rep)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray file still in place (stat err %v)", err)
	}
	for _, name := range []string{"notes", "abcdef"} {
		if _, err := os.Stat(filepath.Join(s.root, "quarantine", "objects", name)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
}

// TestStoreConcurrentWriters hammers one address from many goroutines while
// readers poll it: every read must be a clean miss or a fully verified
// entry — atomic temp+rename means no torn intermediate is ever visible.
func TestStoreConcurrentWriters(t *testing.T) {
	s := openTestStore(t)
	addr := AddressOf("concurrent writers")
	rec := testRecord()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Put(addr, rec); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, err := s.Get(addr)
				if errors.Is(err, ErrMiss) {
					continue
				}
				if err != nil {
					t.Errorf("concurrent Get: %v", err)
					return
				}
				if !reflect.DeepEqual(got, rec) {
					t.Error("concurrent Get returned a mangled record")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := s.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatal("final entry does not verify")
	}
}

// TestRecordRoundTripsResult pins the Record<->Result conversion, RouteErr
// and audit summary included.
func TestRecordRoundTripsResult(t *testing.T) {
	cfg := baseConfig(t)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t)
	addr := AddressOf("record round trip")
	if err := s.Put(addr, RecordOf(res)); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	replay := rec.Result(cfg)
	if !reflect.DeepEqual(replay.CommTimes, res.CommTimes) {
		t.Error("CommTimes do not round-trip")
	}
	if !reflect.DeepEqual(replay.AvgHops, res.AvgHops) {
		t.Error("AvgHops do not round-trip")
	}
	if !reflect.DeepEqual(replay.Links, res.Links) {
		t.Error("Links do not round-trip")
	}
	if !reflect.DeepEqual(replay.AppRouters, res.AppRouters) {
		t.Error("AppRouters do not round-trip")
	}
	if !reflect.DeepEqual(replay.AppNodes, res.AppNodes) {
		t.Error("AppNodes do not round-trip")
	}
	if replay.Duration != res.Duration || replay.Events != res.Events || replay.Completed != res.Completed {
		t.Error("scalars do not round-trip")
	}
}
