//go:build !race

package forest

const raceBuild = false
