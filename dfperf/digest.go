package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"dragonfly/internal/core"
)

// digest fingerprints the simulated outcome of one cell: completion, event
// count, simulated duration, per-rank communication times, every channel's
// traffic and saturation, and drops. A speed-only change must leave it
// bit-identical; farm replays reproduce it exactly because the record codec
// round-trips every field it covers.
func digest(res *core.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := uint64(0)
	if res.Completed {
		flag = 1
	}
	put(flag)
	put(res.Events)
	put(uint64(res.Duration))
	put(uint64(len(res.CommTimes)))
	for _, t := range res.CommTimes {
		put(uint64(t))
	}
	put(uint64(len(res.Links)))
	for _, l := range res.Links {
		eject := uint64(0)
		if l.Eject {
			eject = 1
		}
		put(uint64(l.Kind)<<1 | eject)
		put(uint64(l.From))
		put(uint64(l.To))
		put(uint64(l.Node))
		put(uint64(l.Bytes))
		put(uint64(l.Packets))
		put(uint64(l.SatTime))
	}
	put(uint64(res.DroppedPackets))
	put(uint64(res.DroppedBytes))
	if res.RouteErr != nil {
		h.Write([]byte(res.RouteErr.Error()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sane reports why a healthy-fabric result is unusable, or nil: every
// workload runs on a healthy fabric, so a result must complete with no drops
// and no routing failure.
func sane(res *core.Result) error {
	switch {
	case !res.Completed:
		return fmt.Errorf("did not complete")
	case res.DroppedPackets != 0 || res.DroppedBytes != 0:
		return fmt.Errorf("dropped %d packets", res.DroppedPackets)
	case res.RouteErr != nil:
		return fmt.Errorf("route error: %v", res.RouteErr)
	}
	return nil
}

// recordedJSON holds the per-cell digests this benchmark recorded at seed 1:
// workload -> seed -> cell -> digest. Refresh with
// UPDATE_DIGESTS=1 go test -run TestRecordedDigests.
//
//go:embed digests.json
var recordedJSON []byte

type digestTable map[string]map[string]map[string]string

func loadRecorded() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(recordedJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// expected returns a copy of the recorded digests of one workload at one
// seed; it is empty when none were recorded.
func (t digestTable) expected(workload string, seed int64) map[string]string {
	out := map[string]string{}
	for k, v := range t[workload][strconv.FormatInt(seed, 10)] {
		out[k] = v
	}
	return out
}

// checkCell verifies one cell's result against the expected digests. A cell
// with no expectation yet is sanity-checked and its digest becomes the
// expectation, so later passes must reproduce it exactly.
func checkCell(want map[string]string, name string, res *core.Result) error {
	if err := sane(res); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	got := digest(res)
	w, ok := want[name]
	if !ok {
		want[name] = got
		return nil
	}
	if got != w {
		return fmt.Errorf("%s: digest %s, want %s", name, got, w)
	}
	return nil
}

// checkTraced verifies a traced cell against the digest core.Run (or, for a
// farm hit, the stored simulation) produced for it.
func checkTraced(want map[string]string, name string, res *core.Result) error {
	if _, ok := want[name]; !ok {
		return fmt.Errorf("traced %s: no core.Run digest to compare with", name)
	}
	if err := checkCell(want, name, res); err != nil {
		return fmt.Errorf("traced %w", err)
	}
	return nil
}
