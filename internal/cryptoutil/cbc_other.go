//go:build !amd64 || purego

package cryptoutil

import "crypto/aes"

// useKernel and useVAES are false: off amd64, and under the purego tag,
// Equation 2 and the KDF run on crypto/cipher. useVAES is a variable
// only so that the tests that turn it off build everywhere.
const useKernel = false

var useVAES = false

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

func (d *CEKeyDeriver) init(inner *Key) { d.c = newAESCipher(inner) }

func (d *CEKeyDeriver) ecb(dst, src []byte) { d.ecbStdlib(dst, src) }

// encrypt16 is never reached without the kernel.
func encrypt16(dst, src [][]byte, keys []Key) { panic("cryptoutil: no 16-lane CBC loop") }
