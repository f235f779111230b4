//go:build amd64 && !purego

package nn

import "testing"

// EachKernel runs body once on each dense kernel this machine has: with
// hasAVX512 and hasAVX as detected; on an AVX-512 machine again with
// hasAVX512 forced false, so the 64-output pass takes every 128 outputs; and
// on an AVX machine again with hasAVX forced false too, so the SSE2 blocks
// take every output and denseRows4 every group of rows, as on a CPU
// without AVX.
func EachKernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	avx512, avx := hasAVX512, hasAVX
	t.Cleanup(func() { hasAVX512, hasAVX = avx512, avx })
	if avx512 {
		t.Run("avx512", body)
	}
	hasAVX512 = false
	if avx {
		t.Run("avx", body)
	}
	hasAVX = false
	t.Run("sse2", body)
}
