package shape

import (
	"testing"

	"fixture/internal/scaffold"
)

func TestPlanted(t *testing.T) {
	if Planted() != scaffold.One() {
		t.Fatal("Planted")
	}
}
