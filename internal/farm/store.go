package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dragonfly/internal/chaos"
)

// Store is the on-disk content-addressed result cache. Entries live under
// <root>/objects/<aa>/<address>, where <aa> is the first address byte —
// one fan-out level keeps directories small at millions of entries. Each
// entry is written atomically (temp file + rename in the same directory),
// so readers never observe a torn write; a partially written temp file left
// by a crash is invisible to Get and harmless.
//
// Entries are never trusted: Get verifies the magic header, codec name,
// payload length, payload SHA-256, the embedded address, and the record's
// codec version, and reports ErrCorrupt on any mismatch. Callers treat
// corrupt exactly like missing — re-simulate and overwrite — so a flipped
// bit or truncated file costs one re-run, never a wrong result.
//
// Concurrent writers of one address are benign by construction: the content
// is a deterministic function of the address (same config, same simulator),
// so whichever rename lands last installs identical bytes.
type Store struct {
	root string

	// chaos, when non-nil, injects read corruption and write failures at
	// the store's I/O boundary (see SetChaos); nil costs one comparison.
	chaos *chaos.Injector
}

// ErrMiss reports an address with no stored entry.
var ErrMiss = errors.New("farm: cache miss")

// ErrCorrupt reports an entry that exists but failed an integrity check.
var ErrCorrupt = errors.New("farm: corrupt cache entry")

// entryMagic is the first header token of every entry file; the version
// suffix covers the container layout (header framing), while the payload
// carries its own record version.
const entryMagic = "DFFARM1"

// entryCodec names the payload encoding: the binary record codec of
// codec.go. An entry naming any other codec is corrupt and re-simulates
// once, so entries banked in the earlier "json" payload heal on first use.
const entryCodec = "bin1"

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("farm: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("farm: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// SetChaos installs a fault injector on the store's I/O boundary: reads may
// come back with one flipped bit (which integrity verification must catch),
// writes may fail outright. A nil injector disables injection. Chaos exists
// to prove the self-healing path; production stores never set it.
func (s *Store) SetChaos(in *chaos.Injector) { s.chaos = in }

// entryPath maps an address to its object file.
func (s *Store) entryPath(addr string) string {
	return filepath.Join(s.root, "objects", addr[:2], addr)
}

// Get loads and verifies the entry at addr. It returns ErrMiss when no
// entry exists and an error wrapping ErrCorrupt when one exists but fails
// any integrity check.
func (s *Store) Get(addr string) (*Record, error) {
	if len(addr) < 3 {
		return nil, fmt.Errorf("%w: malformed address %q", ErrCorrupt, addr)
	}
	data, err := os.ReadFile(s.entryPath(addr))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("farm: read %s: %w", short(addr), err)
	}
	if s.chaos.Fire(chaos.SiteStoreRead, addr) {
		s.chaos.FlipBit(data, addr) // simulated disk rot; verification must catch it
	}
	return verifyEntry(addr, data)
}

// short abbreviates an object name for messages; a name shorter than 12
// bytes (a malformed address, a stray file) prints whole.
func short(name string) string { return name[:min(12, len(name))] }

// verifyEntry runs the full integrity pipeline on an entry's raw bytes —
// container framing, payload digest, payload decode, record version — and
// returns the record.
func verifyEntry(addr string, data []byte) (*Record, error) {
	corrupt := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s: %s", ErrCorrupt, short(addr), fmt.Sprintf(format, args...))
	}
	// Three header lines, then the payload:
	//   DFFARM1 bin1
	//   addr <64 hex>
	//   payload <len> <sha256 hex>
	rest := data
	var lines [3]string
	for i := range lines {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, corrupt("truncated header")
		}
		lines[i] = string(rest[:nl])
		rest = rest[nl+1:]
	}
	head := strings.Fields(lines[0])
	if len(head) != 2 || head[0] != entryMagic {
		return nil, corrupt("bad magic %q", lines[0])
	}
	if head[1] != entryCodec {
		return nil, corrupt("unknown codec %q", head[1])
	}
	af := strings.Fields(lines[1])
	if len(af) != 2 || af[0] != "addr" {
		return nil, corrupt("bad address line %q", lines[1])
	}
	if af[1] != addr {
		return nil, corrupt("entry holds address %s", short(af[1]))
	}
	pf := strings.Fields(lines[2])
	if len(pf) != 3 || pf[0] != "payload" {
		return nil, corrupt("bad payload line %q", lines[2])
	}
	n, err := strconv.Atoi(pf[1])
	if err != nil || n < 0 {
		return nil, corrupt("bad payload length %q", pf[1])
	}
	if len(rest) != n {
		return nil, corrupt("payload is %d bytes, header says %d", len(rest), n)
	}
	sum := sha256.Sum256(rest)
	if hex.EncodeToString(sum[:]) != pf[2] {
		return nil, corrupt("payload digest mismatch")
	}
	rec, err := decodeRecord(rest)
	if err != nil {
		return nil, corrupt("payload does not decode: %v", err)
	}
	if rec.Version != codecVersion {
		return nil, corrupt("codec version %d, want %d", rec.Version, codecVersion)
	}
	return rec, nil
}

// Put stores rec at addr, atomically. An existing entry is replaced; since
// entry content is a deterministic function of the address, replacement
// only ever heals corruption.
func (s *Store) Put(addr string, rec *Record) error {
	if len(addr) < 3 {
		return fmt.Errorf("farm: malformed address %q", addr)
	}
	if s.chaos.Fire(chaos.SiteStoreWrite, addr) {
		return fmt.Errorf("farm: put %s: chaos: injected write failure", short(addr))
	}
	payload := encodeRecord(rec)
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(payload) + 160)
	fmt.Fprintf(&b, "%s %s\naddr %s\npayload %d %s\n",
		entryMagic, entryCodec, addr, len(payload), hex.EncodeToString(sum[:]))
	b.Write(payload)

	if err := s.writeAtomic(s.entryPath(addr), b.Bytes()); err != nil {
		return fmt.Errorf("farm: put %s: %w", short(addr), err)
	}
	return nil
}

// writeAtomic installs data at path, under the store's root, through a
// temp file in the same directory and a rename: readers see the old file
// or the whole new one, never a torn write. A directory under the root
// exists after the first write into it, so it is made, and the temp file
// tried once more, only when the first try finds it missing; the root
// itself is never made again, so a store whose root is gone fails its
// writes. The temp file's name starts with a dot, which the scrubber and
// QuarantinedJobs skip.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if _, err = os.Stat(s.root); err == nil {
			err = os.MkdirAll(dir, 0o755)
		}
		if err == nil {
			tmp, err = os.CreateTemp(dir, ".tmp-*")
		}
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Has reports whether a verifiable entry exists at addr. Unlike Get it
// bypasses chaos injection: injection models rot on the consumption path,
// while Has is bookkeeping (the banked counts dffarm prints through
// CountCached), which must stay accurate even while a chaos run is
// hammering the same store.
func (s *Store) Has(addr string) bool {
	if len(addr) < 3 {
		return false
	}
	data, err := os.ReadFile(s.entryPath(addr))
	if err != nil {
		return false
	}
	_, err = verifyEntry(addr, data)
	return err == nil
}

// CountCached reports how many of the given addresses have verifiable
// entries. The store's objects are the only record of finished cells, so
// this is how far a job has got.
func (s *Store) CountCached(addrs []string) int {
	n := 0
	for _, a := range addrs {
		if s.Has(a) {
			n++
		}
	}
	return n
}
