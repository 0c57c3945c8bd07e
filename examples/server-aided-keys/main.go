// Server-aided-keys: the DupLESS alternative the paper weighs and
// rejects for block-level use (§1): "DupLESS provides a mechanism
// that uses a double-blind key generation scheme... The disadvantage
// of that system is that each key generation operation requires
// multiple network round-trips between the application host and the
// key server, making it impractical for block-level operation."
//
// This program runs both configurations side by side on the same
// data — Lamassu with its local inner-key KDF, and Lamassu with a
// DupLESS blind-signature key server — and prints:
//
//  1. that both preserve deduplication across clients, and
//
//  2. the per-block key-derivation cost of each, which is the whole
//     argument.
//
//     go run ./examples/server-aided-keys
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"time"

	"lamassu"
	"lamassu/internal/cryptoutil"
	"lamassu/internal/dedupe"
	"lamassu/internal/dupless"
)

func main() {
	// Start a DupLESS key server on localhost.
	srv, err := dupless.NewServer(2048)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck
	fmt.Println("DupLESS key server listening on", ln.Addr())

	keys, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xD5}, 64*4096) // 256 KiB, 64 identical-across-clients blocks
	vary(payload)                                  // make blocks distinct within the file

	measure := func(label string, opts ...lamassu.Option) {
		shared := lamassu.NewMemStorage()
		m1, err := lamassu.New(shared, keys, opts...)
		if err != nil {
			log.Fatal(err)
		}
		m2, err := lamassu.New(shared, keys, opts...)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := m1.WriteFile("client1.dat", payload); err != nil {
			log.Fatal(err)
		}
		if err := m2.WriteFile("client2.dat", payload); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		eng, _ := dedupe.NewEngine(4096)
		rep, err := eng.Scan(shared)
		if err != nil {
			log.Fatal(err)
		}
		perBlock := elapsed / time.Duration(2*len(payload)/4096)
		fmt.Printf("%-22s dedup saved %5.1f%%   write cost %8v/block\n",
			label, 100*rep.SavedFraction(), perBlock.Round(time.Microsecond))
	}

	// Configuration 1: the paper's design — local KDF with Kin.
	measure("local inner-key KDF:")

	// Configuration 2: DupLESS server-aided derivation; every derived
	// key is one blind-signature round trip to the server.
	nc, err := dupless.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()
	measure("DupLESS OPRF per key:", lamassu.WithKeyDeriver(func(h [32]byte) (lamassu.Key, error) {
		return nc.DeriveKey(cryptoutil.Hash(h))
	}))

	fmt.Println()
	fmt.Println("Both configurations deduplicate equally well; the server-aided scheme is")
	fmt.Println("stronger against a compromised-key-manager adversary, but its per-block")
	fmt.Println("round trip is why the paper keeps key derivation local (§1, §2.1).")
}

// vary stamps each 4 KiB block with its index so the file's blocks
// are distinct (convergence is measured across clients, not within
// the file).
func vary(b []byte) {
	for i := 0; i*4096 < len(b); i++ {
		h := cryptoutil.BlockHash([]byte{byte(i), byte(i >> 8)})
		copy(b[i*4096:i*4096+8], h[:8])
	}
}
