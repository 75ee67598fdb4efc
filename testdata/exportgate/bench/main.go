package main

import (
	"fmt"

	"fixture/internal/shape"
)

func main() {
	fmt.Println(shape.Measure(shape.Unit()))
}
