package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root (skipping the
// build directory), so two checkouts of one commit fingerprint alike even
// without git metadata.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// configHash digests what fixes a run's inputs and checks besides the
// seed: the benchmark definition, the pinned expectations, and the
// benchmark's own configuration constants.
func configHash(root string) string {
	h := sha256.New()
	for _, rel := range []string{"BENCHMARK.json", "perfbench/expected.json"} {
		data, _ := os.ReadFile(filepath.Join(root, rel))
		h.Write(data)
	}
	consts, _ := json.Marshal(map[string]any{
		"setupRepeats": setupRepeats,
		"runApps":      []any{runAppsScale, familySteps, runAppsPerSecond},
		"fleet":        []any{fleetScale, fleetRanks, fleetPerSecond},
		"analyze":      []any{analyzeScale, analyzePerSecond},
		"serve":        []any{serveWorkers, serveQueue, serveNominalRate, serveLadder, serveTailLimit},
	})
	h.Write(consts)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
