package main

import "fixture/internal/lib"

func main() {
	// Shape.Area has no caller but satisfies this interface, so a call
	// through it reaches Area.
	type shape interface{ Area() float64 }
	var s shape = lib.Shape{}
	println(s.Area(), lib.Used())
}
