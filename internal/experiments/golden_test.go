package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned tables under testdata/ from the current code")

// TestPinnedAdversaryTables regenerates the two tables whose cells come
// from the degree adversary — motivation and ext-kiso, seed 1, one
// repetition — and diffs each against its pinned copy under testdata/.
// Every cell is a count, a ratio or a distortion; none is a timing, so
// any difference is a change of answer. Run with -update to re-record
// after an intended change.
func TestPinnedAdversaryTables(t *testing.T) {
	for _, id := range []string{"motivation", "ext-kiso"} {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			got := tab.String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s (rerun with -update only if the change is intended):\ngot:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
