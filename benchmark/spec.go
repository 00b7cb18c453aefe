package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec mirrors BENCHMARK.json, the one place metric names, units,
// directions and regression bounds are declared. The runner reads it at
// start-up and refuses to emit a name it does not declare, so the file and
// the program cannot drift apart.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or — when path is empty — from
// the working directory or its parent (go test runs in benchmark/).
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var raw []byte
	var err error
	for _, c := range candidates {
		if raw, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing benchmark spec: %w", err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if seen[m.Name] {
			return nil, fmt.Errorf("benchmark spec: metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the set a run must emit: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (s *spec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
