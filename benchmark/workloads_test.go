package main

import (
	"reflect"
	"testing"

	"icb/internal/fuzz"
)

func TestPopulationIsAFunctionOfTheSeed(t *testing.T) {
	const n = 3
	specs1, truths1, err := population(7, n)
	if err != nil {
		t.Fatal(err)
	}
	specs2, truths2, err := population(7, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs1, specs2) || !reflect.DeepEqual(truths1, truths2) {
		t.Fatal("the same seed generated different programs or oracle truths")
	}
	for _, tr := range truths1 {
		if len(tr.Bugs) == 0 {
			t.Error("admitted a program without bugs")
		}
	}
	other, _, err := population(8, n)
	if err != nil {
		t.Fatal(err)
	}
	seeds := func(ss []*fuzz.Spec) (out []int64) {
		for _, s := range ss {
			out = append(out, s.Seed)
		}
		return out
	}
	if reflect.DeepEqual(seeds(specs1), seeds(other)) {
		t.Errorf("seeds 7 and 8 generated the same programs %v", seeds(other))
	}
}
