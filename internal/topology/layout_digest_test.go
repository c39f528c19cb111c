package topology_test

import (
	"testing"

	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// layoutCase is one machine shape of the layout digest: a config and the
// pinned digest of every query the machine answers.
type layoutCase struct {
	name   string
	m      topology.Machine
	digest string
}

// layoutCases covers the four presets plus two irregular shapes: an XC40
// machine with a partial trailing cabinet (5 rows in cabinets of 2) and 15
// ports per group over 4 peer groups (not divisible), and a Dragonfly+
// machine with a partial chassis (7 leaves in chassis of 3), a partial
// cabinet (3 chassis in cabinets of 2) and 6 ports over 4 peers.
var layoutCases = []layoutCase{
	{"theta", topology.Theta(), "37a612f46f7d46eca52681c119568b0613bc89b61d37dbf6e0a3bcb16ab12018"},
	{"mini", topology.Mini(), "4d687bdd658da4e5c585c3014fc2a1a53f86a4fae09ca4d6852eb0647579ccfe"},
	{"dfplus", topology.Plus(), "bf0bca093a7f09a9ad68c878ea98c4e7ae35919b79236d51e05934391a5ec158"},
	{"dfplus-mini", topology.PlusMini(), "63a2401b523d307575416c912da2841a6d4ba318eb9d69640eae8fffa6ef5a76"},
	{"xc40-irregular", topology.Config{Groups: 5, Rows: 5, Cols: 3, NodesPerRouter: 2, GlobalPortsPerRouter: 1, ChassisPerCabinet: 2}, "8dff3ec015145e90ce7d147ce5d7fbf0c75171da23b43ef5e2013a07f6212446"},
	{"dfplus-irregular", topology.PlusConfig{Groups: 5, Leaves: 7, Spines: 3, NodesPerLeaf: 3, GlobalPortsPerSpine: 2, LeavesPerChassis: 3, ChassisPerCabinet: 2}, "dfe8b8fb01d4f350da64bd01941697515a4adc21fd0bc2f597cd0d43f98960e2"},
}

// TestLayoutDigestPinned pins every layout and wiring query of the presets
// and of two irregular shapes, so a change to how machines number, attach,
// group or wire their routers cannot pass unnoticed.
func TestLayoutDigestPinned(t *testing.T) {
	for _, tc := range layoutCases {
		t.Run(tc.name, func(t *testing.T) {
			ic, err := tc.m.Build()
			if err != nil {
				t.Fatal(err)
			}
			if got := topotest.LayoutDigest(t, ic); got != tc.digest {
				t.Errorf("layout digest = %s, want %s", got, tc.digest)
			}
		})
	}
}
