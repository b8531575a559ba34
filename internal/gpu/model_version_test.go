package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// goldenDigests records, per ModelVersion, the digest of testdata (sorted
// slash paths plus bytes). A new model version adds an entry; an old entry
// never changes.
var goldenDigests = map[string]string{
	"1": "44c02f0ee814e218df3425b0471f6e9359dc9dfcb434f2b440e412c3d6b35faf",
	"2": "5cffa4dffac36dbbcc3104e813044a4a8ad9305f2c0c9d23f959bfb0e3190e69",
}

// testdataDigest hashes every file under dir: each file's slash path, a NUL,
// its length and its bytes, in sorted path order.
func testdataDigest(t *testing.T, dir string) string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range paths { // WalkDir visits in lexical order
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write([]byte(strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigestNamesModel: the golden Results and metric streams under
// testdata belong to one ModelVersion. A change that regenerates them
// without bumping the version — and so without changing every point key —
// fails here, and old journals and stores would otherwise serve the old
// model's Results under the new one.
func TestGoldenDigestNamesModel(t *testing.T) {
	want, ok := goldenDigests[ModelVersion]
	if !ok {
		t.Fatalf("ModelVersion %q has no recorded testdata digest: add it to goldenDigests", ModelVersion)
	}
	if got := testdataDigest(t, "testdata"); got != want {
		t.Fatalf("testdata digest %s, but ModelVersion %q recorded %s: regenerated golden files need a new ModelVersion (and a new goldenDigests entry)", got, ModelVersion, want)
	}
}
