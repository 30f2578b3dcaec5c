package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// referenceJSON holds the fingerprint of every cell of every workload for
// a set of seeds, recorded with -record: workload → seed → cell →
// fingerprint. A change that only speeds up the host leaves all of them
// unchanged; a change to the model re-records them.
//
//go:embed testdata/fingerprints.json
var referenceJSON []byte

type references map[string]map[string]map[string]string

func loadReferences(data []byte) (references, error) {
	refs := references{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("reference fingerprints: %w", err)
	}
	return refs, nil
}

// compareReference counts the cells whose fingerprint differs from the
// one recorded for this workload and seed, and the cells compared. A seed
// without a recorded reference compares nothing.
func compareReference(workload string, seed int64, fps map[string]string) (changed, compared int) {
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		return 0, 0
	}
	want := refs[workload][strconv.FormatInt(seed, 10)]
	for cell, fp := range fps {
		if ref, ok := want[cell]; ok {
			compared++
			if ref != fp {
				changed++
			}
		}
	}
	return changed, compared
}

// record runs every cell of the workload once at the given seed and
// merges their fingerprints into the reference file at path.
func record(path string, w workload, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	refs, err := loadReferences(data)
	if err != nil {
		return err
	}
	p := w.params(seed)
	cells := map[string]string{}
	for _, c := range w.cells {
		res, err := exec(c, p)
		if err == nil && !res.verified() {
			err = fmt.Errorf("output not verified")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
		if cells[c.name()], err = res.fingerprint(); err != nil {
			return err
		}
	}
	if refs[w.name] == nil {
		refs[w.name] = map[string]map[string]string{}
	}
	refs[w.name][strconv.FormatInt(seed, 10)] = cells
	out, err := marshalSorted(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// marshalSorted writes the references in sorted order, one seed per line,
// so a re-recording diffs cleanly.
func marshalSorted(refs references) ([]byte, error) {
	var buf []byte
	buf = append(buf, "{\n"...)
	names := make([]string, 0, len(refs))
	for n := range refs {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		seeds := make([]string, 0, len(refs[n]))
		for s := range refs[n] {
			seeds = append(seeds, s)
		}
		sort.Strings(seeds)
		buf = append(buf, fmt.Sprintf("  %q: {\n", n)...)
		for j, s := range seeds {
			cells, err := json.Marshal(refs[n][s]) // map keys come out sorted
			if err != nil {
				return nil, err
			}
			buf = append(buf, fmt.Sprintf("    %q: %s", s, cells)...)
			if j < len(seeds)-1 {
				buf = append(buf, ',')
			}
			buf = append(buf, '\n')
		}
		buf = append(buf, "  }"...)
		if i < len(names)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return buf, nil
}
