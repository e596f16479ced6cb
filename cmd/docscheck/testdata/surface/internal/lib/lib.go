package lib

// Used is called by the command.
func Used() int { return 1 }

// TestOnly is called by lib_test.go alone.
func TestOnly() int { return 2 }

// Allowed has no user; the test allow-lists it.
func Allowed() int { return 3 }

type Shape struct{}

func (Shape) Area() float64 { return 4 }
