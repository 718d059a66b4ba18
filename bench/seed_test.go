package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestSeedDeterminesInputs(t *testing.T) {
	all, err := workloads("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range all {
		a, err := w.inputs(11, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.inputs(11, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.inputs(12, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if bytes.Equal(a[0].P.Phylip, c[0].P.Phylip) {
			t.Errorf("%s: different seeds gave identical PHYLIP data", w.Name)
		}
	}
}

func TestServiceMixIsExactPerDeck(t *testing.T) {
	all, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload(all, "service-mix")
	if err != nil {
		t.Fatal(err)
	}
	per := 0
	for _, c := range w.Mix {
		per += c.PerDeck
	}
	if per != deckSize {
		t.Fatalf("mix holds %d jobs per deck, want %d", per, deckSize)
	}
	ins, err := w.inputs(5, 2*deckSize/w.Rate) // two whole decks
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	restarts := 0
	for _, in := range ins {
		if in.At < 0 {
			restarts++
			continue
		}
		count[in.Class]++
	}
	for _, c := range w.Mix {
		if count[c.Name] != 2*c.PerDeck {
			t.Errorf("class %s arrived %d times in two decks, want %d", c.Name, count[c.Name], 2*c.PerDeck)
		}
	}
	if restarts != w.RestartJobs {
		t.Errorf("%d restart-phase jobs, want %d", restarts, w.RestartJobs)
	}
}
