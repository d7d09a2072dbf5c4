package ga

import (
	"slices"
	"testing"
)

func TestClone(t *testing.T) {
	c := Chromosome{1, 2, 3}
	d := c.Clone()
	d[0] = 99
	if c[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if !slices.Equal(c, Chromosome{1, 2, 3}) {
		t.Error("original mutated")
	}
}

func TestIsPermutationOf(t *testing.T) {
	a := Chromosome{3, 1, 2}
	if !a.IsPermutationOf(Chromosome{1, 2, 3}) {
		t.Error("permutation not recognised")
	}
	if a.IsPermutationOf(Chromosome{1, 2, 2}) {
		t.Error("multiset mismatch not caught")
	}
	if a.IsPermutationOf(Chromosome{1, 2}) {
		t.Error("length mismatch not caught")
	}
	// Multiset semantics: {1,1,2} vs {1,2,2} differ.
	if (Chromosome{1, 1, 2}).IsPermutationOf(Chromosome{1, 2, 2}) {
		t.Error("duplicate counting broken")
	}
}

func TestValidatePermutation(t *testing.T) {
	if err := (Chromosome{5, -1, 3}).ValidatePermutation(); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := (Chromosome{5, 3, 5}).ValidatePermutation(); err == nil {
		t.Error("duplicate symbols accepted")
	}
	if err := (Chromosome{}).ValidatePermutation(); err != nil {
		t.Errorf("empty chromosome rejected: %v", err)
	}
}
