//go:build race

package forest

// raceBuild reports a build with the race detector, under which sync.Pool
// drops a share of its Puts at random.
const raceBuild = true
