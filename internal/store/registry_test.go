package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toprr/internal/vec"
)

func TestValidateDatasetName(t *testing.T) {
	good := []string{"default", "a", "laptops-eu", "m2.large", "A1_b", "x0123456789"}
	for _, name := range good {
		if err := ValidateDatasetName(name); err != nil {
			t.Errorf("ValidateDatasetName(%q) = %v, want nil", name, err)
		}
	}
	bad := []string{
		"", ".", "..", ".hidden", "-flag", "_x",
		"a/b", "a\\b", "a b", "a\x00b", "über",
		string(make([]byte, maxDatasetName+1)),
	}
	for _, name := range bad {
		if err := ValidateDatasetName(name); err == nil {
			t.Errorf("ValidateDatasetName(%q) = nil, want error", name)
		}
	}
}

// openDataset opens (creating if needed) one dataset store under root.
func openDataset(t *testing.T, root, name string, boot []vec.Vector) *Store {
	t.Helper()
	s, err := Open(PersistConfig{Dir: DatasetDir(root, name)}, boot)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiscoverDatasets: discovery reports exactly the subdirectories
// holding recoverable state, sorted; stateless and invalid entries are
// skipped, and a missing root is no datasets.
func TestDiscoverDatasets(t *testing.T) {
	root := t.TempDir()
	if names, err := DiscoverDatasets(filepath.Join(root, "missing")); err != nil || len(names) != 0 {
		t.Fatalf("missing root: %v, %v", names, err)
	}

	boot := []vec.Vector{vec.Of(0.3, 0.7), vec.Of(0.7, 0.3)}
	for _, name := range []string{"beta", "alpha"} {
		s := openDataset(t, root, name, boot)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A stateless subdirectory (crash before the first snapshot), an
	// invalid name, and a stray file must all be skipped.
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".hidden"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	names, err := DiscoverDatasets(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "beta"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("DiscoverDatasets = %v, want %v", names, want)
	}
}

// TestRemoveDataset: removal deletes the subdirectory and discovery no
// longer reports it; removing an absent dataset is a no-op.
func TestRemoveDataset(t *testing.T) {
	root := t.TempDir()
	s := openDataset(t, root, "doomed", []vec.Vector{vec.Of(0.5, 0.5), vec.Of(0.4, 0.6)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := RemoveDataset(root, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(DatasetDir(root, "doomed")); !os.IsNotExist(err) {
		t.Fatalf("dataset dir survives removal: %v", err)
	}
	if names, _ := DiscoverDatasets(root); len(names) != 0 {
		t.Fatalf("discovery after removal = %v", names)
	}
	if err := RemoveDataset(root, "doomed"); err != nil {
		t.Fatalf("second removal: %v", err)
	}
	if err := RemoveDataset(root, "../escape"); err == nil {
		t.Fatal("RemoveDataset accepted a path-escaping name")
	}
}
