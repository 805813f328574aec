package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// expected holds the sha256 of every operation output the benchmark can
// produce, pinned at the commit that defined the benchmark. Seeds choose
// among finite pools of inputs, so every seed's outputs are covered.
type expected struct {
	Outputs map[string]string `json:"outputs"`
	// pinning records outputs instead of checking them (the pin command).
	pinning bool
}

const expectedFile = "perfbench/expected.json"

func loadExpected(root string) (*expected, error) {
	data, err := os.ReadFile(filepath.Join(root, expectedFile))
	if errors.Is(err, os.ErrNotExist) {
		return &expected{Outputs: map[string]string{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	if e.Outputs == nil {
		e.Outputs = map[string]string{}
	}
	return &e, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func (e *expected) verify(key string, out []byte) error {
	got := digest(out)
	if e.pinning {
		if prev, ok := e.Outputs[key]; ok && prev != got {
			return fmt.Errorf("output is not deterministic: sha256 %.12s then %.12s", prev, got)
		}
		e.Outputs[key] = got
		return nil
	}
	want, ok := e.Outputs[key]
	if !ok {
		return fmt.Errorf("no pinned output for this input")
	}
	if got != want {
		return fmt.Errorf("output sha256 %.12s, pinned %.12s", got, want)
	}
	return nil
}

func (e *expected) write(root string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, expectedFile), append(data, '\n'), 0o644)
}

// pinAll runs every input of every workload's pool once and records the
// output hashes in expected.json. Run it only at a commit whose outputs
// are known good; a later run that differs from the pins fails.
func pinAll(root string, stdout, stderr io.Writer) int {
	e := &expected{Outputs: map[string]string{}, pinning: true}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "pin-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if err := os.Setenv("DIOGENES_OBS_STATE", filepath.Join(tmp, "obs-state.json")); err != nil {
		fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
		return 1
	}
	b := &bench{tmp: tmp, expect: e, details: map[string]metric{}, notes: map[string]string{}}
	for _, p := range []func(*bench) error{pinRunApps, pinFleet, pinAnalyze, pinServe} {
		if err := p(b); err != nil {
			fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
			return 1
		}
	}
	if b.failed > 0 {
		for _, f := range b.failures {
			fmt.Fprintf(stderr, "perfbench: pin: %s\n", f)
		}
		return 1
	}
	if err := e.write(root); err != nil {
		fmt.Fprintf(stderr, "perfbench: pin: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pinned %d outputs in %s\n", len(e.Outputs), expectedFile)
	return 0
}
