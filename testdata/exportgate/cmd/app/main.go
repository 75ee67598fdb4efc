package main

import (
	"fmt"

	"fixture/internal/shape"
)

func main() {
	var o shape.Options
	o.Assigned = 1
	fmt.Println(shape.Unit().Area(), o)
}
