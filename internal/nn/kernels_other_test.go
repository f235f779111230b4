//go:build !amd64 || purego

package nn

import "testing"

// EachKernel runs body on the one Go kernel.
func EachKernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	body(t)
}
