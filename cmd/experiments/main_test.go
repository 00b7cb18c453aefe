package main

import (
	"strings"
	"testing"

	"pclouds/internal/experiments"
)

func TestSelectExperimentsRejectsUnknownNames(t *testing.T) {
	cat := catalog(experiments.DefaultHarness(), 0.01)
	for _, name := range []string{"bogus", "baseline", "pbaseline", "regroup", "fusion", ""} {
		_, err := selectExperiments(cat, name, "table")
		if err == nil {
			t.Fatalf("-exp %q accepted", name)
		}
		// The error lists what would have worked.
		for _, valid := range []string{"all", "fig1", "strategies", "boundary"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("-exp %q error %q does not list %q", name, err, valid)
			}
		}
	}
	todo, err := selectExperiments(cat, "all", "table")
	if err != nil || len(todo) != len(cat) {
		t.Fatalf("-exp all: %d of %d experiments, err %v", len(todo), len(cat), err)
	}
	todo, err = selectExperiments(cat, "strategies", "table")
	if err != nil || len(todo) != 1 || todo[0].name != "strategies" {
		t.Fatalf("-exp strategies: %v, err %v", names(todo), err)
	}
}

func TestSelectExperimentsRejectsCSVWithoutEmitter(t *testing.T) {
	cat := catalog(experiments.DefaultHarness(), 0.01)
	for _, name := range []string{"table1", "fig1", "fig2", "fig3"} {
		if _, err := selectExperiments(cat, name, "csv"); err != nil {
			t.Errorf("-exp %s -format csv: %v", name, err)
		}
	}
	for _, name := range []string{"strategies", "boundary", "all"} {
		_, err := selectExperiments(cat, name, "csv")
		if err == nil || !strings.Contains(err.Error(), "fig1") {
			t.Errorf("-exp %s -format csv: err %v, want a rejection naming the csv experiments", name, err)
		}
	}
	if _, err := selectExperiments(cat, "fig1", "json"); err == nil {
		t.Error("-format json accepted")
	}
}
