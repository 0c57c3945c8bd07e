// Dedupe-zones: the paper's headline scenario (§1–2). Multiple
// tenants store data on one shared, untrusted, deduplicating storage
// system:
//
//   - Tenants inside one isolation zone share an inner key, so their
//     identical plaintext converges to identical ciphertext and the
//     storage system deduplicates it — without ever holding a key.
//   - Tenants in different zones produce unrelated ciphertext for the
//     same plaintext: no cross-zone dedup, and no cross-zone
//     information leak through dedup behaviour.
//
// The program stores the same "golden VM image" from three tenants
// (two sharing zone A, one in zone B) and then runs the storage
// system's deduplication, printing the before/after block counts.
//
//	go run ./examples/dedupe-zones
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lamassu"
	"lamassu/internal/dedupe"
)

func main() {
	// One shared storage backend for everyone — the untrusted
	// deduplicating filer.
	shared := lamassu.NewMemStorage()

	// Zone A: two cooperating tenants share a key pair (in a real
	// deployment both would fetch it from the key server with the
	// same isolation-zone attribute).
	zoneA, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	tenant1, err := lamassu.New(shared, zoneA)
	if err != nil {
		log.Fatal(err)
	}
	tenant2, err := lamassu.New(shared, zoneA)
	if err != nil {
		log.Fatal(err)
	}

	// Zone B: an unrelated tenant with its own keys.
	zoneB, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	tenant3, err := lamassu.New(shared, zoneB)
	if err != nil {
		log.Fatal(err)
	}

	// Everyone stores the same 8 MiB golden image.
	golden := make([]byte, 8<<20)
	rand.New(rand.NewSource(42)).Read(golden)

	if err := tenant1.WriteFile("vm-tenant1.img", golden); err != nil {
		log.Fatal(err)
	}
	if err := tenant2.WriteFile("vm-tenant2.img", golden); err != nil {
		log.Fatal(err)
	}
	if err := tenant3.WriteFile("vm-tenant3.img", golden); err != nil {
		log.Fatal(err)
	}

	// The filer runs post-process deduplication over everything it
	// holds. It sees only ciphertext.
	engine, err := dedupe.NewEngine(4096)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := engine.Scan(shared)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filer holds %d files, %d blocks before dedup\n", rep.Files, rep.TotalBlocks)
	fmt.Printf("after dedup: %d unique blocks (%.1f%% of original, %.1f%% reclaimed)\n",
		rep.UniqueBlocks, 100*rep.RelativeUsage(), 100*rep.SavedFraction())
	fmt.Println()
	fmt.Println("tenant1+tenant2 share zone A: their identical images deduplicated against each other.")
	fmt.Println("tenant3 (zone B) wrote the same plaintext but shares nothing with zone A:")
	fmt.Println("different inner keys derive different convergent keys (paper §2.2).")

	// Access control: zone A cannot read zone B's file — the outer
	// key seals the embedded metadata.
	if _, err := tenant1.ReadFile("vm-tenant3.img"); err != nil {
		fmt.Printf("\ntenant1 reading tenant3's file: correctly denied (%v)\n", err)
	} else {
		log.Fatal("cross-zone read should have failed")
	}

	// But within zone A both tenants read each other's data.
	if _, err := tenant2.ReadFile("vm-tenant1.img"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant2 reading tenant1's file in the shared zone: OK")
}
