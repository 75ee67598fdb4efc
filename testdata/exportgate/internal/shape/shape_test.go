package shape

import (
	"testing"

	"fixture/internal/scaffold"
)

func TestPlanted(t *testing.T) {
	if Planted() != scaffold.One() {
		t.Fatal("Planted")
	}
	if o := (Options{Planted: 1}); o.Planted == defaults.Planted {
		t.Fatal("Options.Planted")
	}
}
