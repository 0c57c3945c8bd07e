//go:build !amd64 || purego

package cryptoutil

import "crypto/aes"

// useKernel is false: off amd64, and under the purego tag, Equation 2
// runs on crypto/cipher.
const useKernel = false

func encryptCBC(dst, src []byte, key *Key, iv *[aes.BlockSize]byte) {
	encryptCBCStdlib(dst, src, *key, *iv)
}

func decryptCBC(dst, src []byte, key *Key, iv *[aes.BlockSize]byte) {
	decryptCBCStdlib(dst, src, *key, *iv)
}

func encryptLanes(dst, src [][]byte, keys []Key) {
	for i := range src {
		encryptCBCStdlib(dst[i], src[i], keys[i], fixedIV)
	}
}
