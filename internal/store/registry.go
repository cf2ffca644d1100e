package store

// Multi-dataset layout of one data-directory root.
//
// A root directory holds one subdirectory per named dataset, each a
// fully independent store: its own base snapshots, WAL segments and
// LOCK flock. Nothing ties the siblings together — a dataset opens,
// compacts, crashes and recovers exactly as a single-store directory
// does — so the per-dataset recovery contract of docs/PERSISTENCE.md
// applies verbatim under <root>/<dataset>/.
//
//	<root>/
//	  laptops/   snap-….snap  wal-….seg  LOCK
//	  phones/    snap-….snap  wal-….seg  LOCK
//
// This file holds the layout-level helpers: dataset-name validation
// (names are path components and must never escape the root), boot-time
// discovery of existing datasets, and dataset removal.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// maxDatasetName bounds dataset-name length; names are path components
// and directory entries, so excess here is operator error, not scale.
const maxDatasetName = 64

// ValidateDatasetName reports whether name is usable as a dataset name:
// 1-64 characters of [a-zA-Z0-9._-], starting with an alphanumeric.
// The grammar keeps every name a safe, portable path component — no
// separators, no "..", no hidden files — so a dataset can never address
// state outside its own <root>/<name>/ subdirectory.
func ValidateDatasetName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty dataset name")
	}
	if len(name) > maxDatasetName {
		return fmt.Errorf("store: dataset name %q over %d characters", name, maxDatasetName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 {
			if !alnum {
				return fmt.Errorf("store: dataset name %q must start with a letter or digit", name)
			}
			continue
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return fmt.Errorf("store: dataset name %q has invalid character %q", name, c)
		}
	}
	return nil
}

// DatasetDir returns the data directory of one named dataset under a
// registry root. The name must have passed ValidateDatasetName.
func DatasetDir(root, name string) string {
	return filepath.Join(root, name)
}

// DiscoverDatasets lists the datasets recoverable under root: every
// subdirectory with a valid name that holds a base snapshot (HasState).
// Subdirectories without state are skipped — a crash between MkdirAll
// and the first base snapshot leaves one, and it holds nothing to
// recover — as are entries whose names the grammar rejects (operator
// artifacts, not datasets). A missing root is simply no datasets. The
// result is sorted by name.
//
// A root that itself holds base snapshots or WAL segments — one store
// opened directly on it — is refused: its files belong in a dataset
// subdirectory, and discovery moves and deletes nothing.
func DiscoverDatasets(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: discover %s: %w", root, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			if isSnapshotName(e.Name()) || isSegmentName(e.Name()) {
				return nil, fmt.Errorf("store: discover %s: the root holds store file %s directly; move its snap-*.snap and wal-*.seg files into %s",
					root, e.Name(), DatasetDir(root, "default")+string(filepath.Separator))
			}
			continue
		}
		if ValidateDatasetName(e.Name()) != nil {
			continue
		}
		ok, err := HasState(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: discover %s: %w", root, err)
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// RemoveDataset deletes a dataset's directory under root. The caller
// must have closed the dataset's store first; on Unix the open WAL fd
// of a racing reader keeps serving until it drops, but nothing new can
// open the directory once it is gone. Removing an absent dataset is a
// no-op.
func RemoveDataset(root, name string) error {
	if err := ValidateDatasetName(name); err != nil {
		return err
	}
	if err := os.RemoveAll(DatasetDir(root, name)); err != nil {
		return fmt.Errorf("store: remove dataset %s: %w", name, err)
	}
	return syncDir(root)
}
