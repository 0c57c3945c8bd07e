//go:build !amd64 || purego

package cryptoutil

// useHashKernel is false: off amd64, and under the purego tag, Equation
// 1's hash runs on crypto/sha256.
const useHashKernel = false

// hashLanes is never reached without the kernel.
func hashLanes(dst []Hash, src [][]byte) { panic("cryptoutil: no multi-buffer SHA-256 kernel") }
