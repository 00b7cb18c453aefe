package stream

import (
	"fmt"
	"strings"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/durable"
)

// goldenConfig is the stream-tail benchmark's engine configuration: 16
// histogram bins, depth 6, a 2,048-record reservoir, a refresh every 8
// windows and holdout scoring (so the drift detector and the publish
// gate run) over 1,024-record windows.
func goldenConfig(dir string) Config {
	return Config{
		Schema:        datagen.Schema(),
		Clouds:        clouds.Config{Split: clouds.SplitHist, HistBins: 16, MaxDepth: 6, Seed: 1},
		WindowRecords: 1024,
		SampleEvery:   8,
		ReservoirCap:  2048,
		RefreshEvery:  8,
		HoldoutEvery:  8,
		MaxWindows:    40,
		PublishDir:    dir,
	}
}

// goldenPublished is the CRC-32C (durable.Checksum) of every model the
// golden stream publishes, by file name. Any change to frontier cuts,
// sketch counts, split decisions, refresh builds or the gate moves a
// value or a name here.
var goldenPublished = map[string]uint32{
	"model-w000001.tree": 0xa81fc5ef,
	"model-w000002.tree": 0x12c3f983,
	"model-w000003.tree": 0x7cf4b432,
	"model-w000004.tree": 0x902a6dc1,
	"model-w000005.tree": 0xcf5b5f12,
	"model-w000006.tree": 0x2b1f904e,
	"model-w000007.tree": 0x2ca86e11,
	"model-w000008.tree": 0xd4e72aaa,
	"model-w000009.tree": 0xe66390a3,
	"model-w000010.tree": 0x95047b77,
	"model-w000011.tree": 0x6eaf3ae8,
	"model-w000012.tree": 0x494548e3,
	"model-w000013.tree": 0x08cae32f,
	"model-w000014.tree": 0x14d8c6d9,
	"model-w000015.tree": 0xed757f4c,
	"model-w000016.tree": 0x03dc47a9,
	"model-w000017.tree": 0xf23f5569,
	"model-w000018.tree": 0xd04382cb,
	"model-w000019.tree": 0x94ea5f80,
	"model-w000020.tree": 0x4da586e4,
	"model-w000021.tree": 0xae7aad39,
	"model-w000022.tree": 0xc30b3bd9,
	"model-w000023.tree": 0x3474ec7c,
	"model-w000025.tree": 0xbfd989f5,
	"model-w000026.tree": 0x8fbea544,
	"model-w000027.tree": 0x80baef53,
	"model-w000028.tree": 0xea03a0d2,
	"model-w000029.tree": 0xf5818ef2,
	"model-w000030.tree": 0x1f0c0b8f,
	"model-w000031.tree": 0x7bd1279d,
	"model-w000033.tree": 0x5f0da13b,
	"model-w000034.tree": 0x8e359d3c,
	"model-w000035.tree": 0x015f64d3,
	"model-w000036.tree": 0x1bad674a,
	"model-w000037.tree": 0x4989332c,
	"model-w000038.tree": 0xbb43cedc,
	"model-w000039.tree": 0x542ef093,
	"model-w000040.tree": 0x18ebd58e,
}

// TestGoldenPublishedSequence pins every published model's bytes on forty
// windows of noisy function-2 data at one to four ranks: bootstrap and
// periodic refreshes, frontier growth from merged sketches and the holdout
// gate all run. Three ranks exercise the non-power-of-two collectives and
// an uneven split of the refresh's subtrees.
func TestGoldenPublishedSequence(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		dir := t.TempDir()
		src := func(int) Source {
			s, err := NewSynthetic(datagen.Config{Function: 2, Seed: 42, Noise: 0.05}, 0)
			if err != nil {
				t.Error(err)
				return nil
			}
			return s
		}
		res := runRanks(t, p, goldenConfig(dir), src)
		st := res[0].Stats
		if st.Windows != 40 || st.Refreshes == 0 || st.Grown == 0 || st.HoldoutRecords == 0 || st.GateSkips == 0 {
			t.Fatalf("p=%d: windows %d refreshes %d grown %d holdout %d gate skips %d: the stream does not exercise every path",
				p, st.Windows, st.Refreshes, st.Grown, st.HoldoutRecords, st.GateSkips)
		}
		got := publishedModels(t, dir)
		if len(got) != len(goldenPublished) {
			t.Errorf("p=%d: published %d models, want %d", p, len(got), len(goldenPublished))
		}
		for name, want := range goldenPublished {
			blob, ok := got[name]
			if !ok {
				t.Errorf("p=%d: %s not published", p, name)
				continue
			}
			if crc := durable.Checksum(blob); crc != want {
				t.Errorf("p=%d: %s checksum %#08x, want %#08x", p, name, crc, want)
			}
		}
		if t.Failed() {
			var dump strings.Builder
			for _, name := range sortedNames(got) {
				fmt.Fprintf(&dump, "\t%q: %#08x,\n", name, durable.Checksum(got[name]))
			}
			t.Fatalf("p=%d published:\n%s", p, dump.String())
		}
	}
}
