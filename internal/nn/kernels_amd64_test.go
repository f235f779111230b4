//go:build amd64 && !purego

package nn

import "testing"

// EachKernel runs body once on each dense kernel this machine has: with
// hasAVX as detected, and, on an AVX machine, again with it forced false so
// the SSE2 blocks take every output and denseRows4 every group of rows, as
// on a CPU without AVX.
func EachKernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	detected := hasAVX
	t.Cleanup(func() { hasAVX = detected })
	if detected {
		t.Run("avx", body)
	}
	hasAVX = false
	t.Run("sse2", body)
}
