// Fixture for the simrng analyzer: importing a random-number package on a
// sim path is flagged, whatever the file then does with it.
package simrng

import (
	crand "crypto/rand" // want `crypto/rand on a sim path`
	"math/rand"         // want `math/rand on a sim path`
)

func mintsStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func realEntropy(buf []byte) {
	crand.Read(buf)
}
