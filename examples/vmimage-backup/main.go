// VMImage-backup: the Table 1 scenario — back up virtual-machine
// images through Lamassu onto a deduplicating store and compare the
// space the filer actually needs against (a) an unencrypted backup
// and (b) a conventionally encrypted one.
//
// The images are synthetic stand-ins with the sizes and intrinsic
// block-redundancy of the paper's five VirtualBox images (scaled down
// 64x so the example runs in seconds; ratios are size-independent).
//
//	go run ./examples/vmimage-backup
package main

import (
	"fmt"
	"log"

	"lamassu"
	"lamassu/internal/backend"
	"lamassu/internal/datagen"
	"lamassu/internal/dedupe"
	"lamassu/internal/encfs"
	"lamassu/internal/plainfs"
	"lamassu/internal/vfs"
)

func main() {
	keys, err := lamassu.GenerateKeys()
	if err != nil {
		log.Fatal(err)
	}
	var volumeKey [32]byte
	copy(volumeKey[:], keys.Outer[:]) // any independent key works for EncFS

	images := datagen.Table1Images(64)
	engine, err := dedupe.NewEngine(4096)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-24s %9s | %11s %11s %11s | %9s\n",
		"VM image", "size", "plain", "encfs", "lamassu", "overhead")
	fmt.Println("  (columns: % of blocks reclaimed by the filer's dedup per backup flavour)")

	for i, img := range images {
		// Three volumes, one per backup flavour, as in §4.1.
		plainStore := backend.NewMemStore()
		encStore := backend.NewMemStore()
		lmsStore := backend.NewMemStore()

		plainFS := plainfs.New(plainStore)
		encFS, err := encfs.New(encStore, encfs.Config{VolumeKey: volumeKey, BlockSize: 4096, Aligned: true})
		if err != nil {
			log.Fatal(err)
		}
		lmsMount, err := lamassu.New(lmsStore, keys)
		if err != nil {
			log.Fatal(err)
		}

		seed := int64(7 + i)
		for _, target := range []vfs.FS{plainFS, encFS, lmsMount.VFS()} {
			if err := img.Generate(target, img.Name, 4096, seed); err != nil {
				log.Fatal(err)
			}
		}

		reclaim := func(s *backend.MemStore) float64 {
			rep, err := engine.Scan(s)
			if err != nil {
				log.Fatal(err)
			}
			return 100 * rep.SavedFraction()
		}
		phys, err := lmsStore.Stat(img.Name)
		if err != nil {
			log.Fatal(err)
		}
		overhead := 100 * float64(phys-img.Bytes) / float64(img.Bytes)

		fmt.Printf("%-24s %8.0fM | %10.2f%% %10.2f%% %10.2f%% | %8.2f%%\n",
			img.Name, float64(img.Bytes)/(1<<20),
			reclaim(plainStore), reclaim(encStore), reclaim(lmsStore), overhead)
	}

	fmt.Println()
	fmt.Println("Lamassu keeps nearly all of the plaintext dedup (within the ~1-2% metadata")
	fmt.Println("overhead), while conventional encryption forfeits all of it — Table 1's result.")
}
